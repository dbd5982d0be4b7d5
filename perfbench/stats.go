package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p95 at least 200.
const minBeyond = 10

// tailLevels are the percentiles tail() may report, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps p/100*n from rounding up past an exact rank
	// (0.999*10000 is 9990.000000000002 in float64).
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie strictly above the nearest-rank
// percentile p.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// percentile returns the nearest-rank percentile p of sorted and whether
// at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	return sorted[rank(len(sorted), p)], beyond(len(sorted), p) >= minBeyond
}

// tail returns the highest percentile level with at least minBeyond samples
// beyond it, and its value; level is 0 when there are too few samples for
// any level.
func tail(sorted []float64) (level, v float64) {
	for _, p := range tailLevels {
		if x, ok := percentile(sorted, p); ok {
			return p, x
		}
	}
	return 0, 0
}

// medianP99 is the median over windows of each window's p99, and whether
// every window has at least minBeyond samples beyond its p99. A window is a
// contiguous stretch of the run (a pass, or a slice of a trial), so one
// stretch of host noise moves one window's tail, not the reported one.
func medianP99(windows [][]float64) (float64, bool) {
	ok := len(windows) > 0
	var tails []float64
	for _, w := range windows {
		v, enough := percentile(sortedCopy(w), 99)
		ok = ok && enough
		tails = append(tails, v)
	}
	return median(tails), ok
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

// median of unsorted values (the mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	s := slices.Clone(xs)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime is the span's duration minus the part of it that the union of
// its children covers; children may overlap each other and may stick out
// of the span.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, span.lo), min(c.hi, span.hi)
		if hi > lo {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range cs {
		if c.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c.lo, c.hi
		} else if c.hi > curHi {
			curHi = c.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return span.hi - span.lo - covered
}

// dueLatency is an open-loop request's latency: from when it was due to be
// sent, not from when it was sent, so a stall that delays later sends is
// charged to every request behind it.
func dueLatency(due, end time.Duration) time.Duration { return end - due }

// backlogGrowing reports whether the send lag (ms, in schedule order) of
// one open-loop trial grows: the last quarter lags the first by more than a
// quarter of the latency limit and by more than half of it overall. A
// stable system at its rate keeps lag flat; past capacity it climbs
// without bound.
func backlogGrowing(lagMs []float64, limitMs float64) bool {
	n := len(lagMs)
	if n < 8 {
		return false
	}
	q := n / 4
	first := median(lagMs[:q])
	last := median(lagMs[n-q:])
	return last-first > limitMs/4 && last > limitMs/2
}

// searchMaxRate bisects (geometrically) for the highest rate in [lo, hi]
// at which ok holds, assuming ok is monotone (true below capacity, false
// above). It stops once the bracket is within tol (hi/lo ≤ 1+tol) and
// returns the highest passing rate found (lo if none passed). probes
// counts calls to ok.
func searchMaxRate(lo, hi, tol float64, ok func(rate float64) bool) (best float64, probes int) {
	best = lo
	for hi/lo > 1+tol {
		mid := math.Sqrt(lo * hi)
		probes++
		if ok(mid) {
			lo, best = mid, mid
		} else {
			hi = mid
		}
	}
	return best, probes
}
