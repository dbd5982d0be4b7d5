package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false}, {100, 90, true}, {10000, 99.9, true}, {9999, 99.9, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok {
			t.Errorf("n=%d p%g: ok=%v, want %v", c.n, c.p, ok, c.ok)
		}
		if ok && c.n-int(v) < minBeyond {
			t.Errorf("n=%d p%g = %g leaves %d beyond", c.n, c.p, v, c.n-int(v))
		}
	}
	if v, _ := percentile(seq(1000), 99); v != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (nearest rank)", v)
	}
	for _, c := range []struct {
		n     int
		level float64
	}{{20000, 99.9}, {1000, 99}, {500, 95}, {100, 90}, {50, 75}, {30, 50}, {15, 0}} {
		if lvl, _ := tail(seq(c.n)); lvl != c.level {
			t.Errorf("tail level with n=%d = p%g, want p%g", c.n, lvl, c.level)
		}
	}
}

func TestMedianP99IgnoresOneNoisyWindow(t *testing.T) {
	var windows [][]float64
	for i := range 5 {
		w := seq(1000)
		if i == 2 {
			for j := range w {
				w[j] *= 10 // one stretch of host noise
			}
		}
		windows = append(windows, w)
	}
	if v, ok := medianP99(windows); !ok || v != 990 {
		t.Errorf("medianP99 = %g, %v; want 990, true", v, ok)
	}
	if _, ok := medianP99(append(windows, seq(999))); ok {
		t.Error("a window of 999 samples has too few beyond its p99")
	}
	if _, ok := medianP99(nil); ok {
		t.Error("no windows cannot give a p99")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3.1, 0.5, 7.25, 2.0, 9.5, 4.4, 1.1}, [3]float64{1.1, 3.1, 7.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	span := interval{0, 100}
	for _, c := range []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		{[]interval{{10, 30}, {20, 40}}, 70},            // overlapping children count once
		{[]interval{{10, 30}, {20, 40}, {90, 120}}, 60}, // a child sticking out is clipped
		{[]interval{{10, 50}, {20, 30}}, 60},            // nested
		{[]interval{{-5, 200}}, 0},
		{[]interval{{100, 150}}, 100}, // outside
	} {
		if got := selfTime(span, c.kids); got != c.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", span, c.kids, got, c.want)
		}
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	// Ten requests due 1 ms apart on one connection; the first stalls for
	// 40 ms, the rest are instant. Timed from send, requests 1..9 would
	// look instant; timed from due, each carries the wait the stall
	// imposed on it.
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	const stall = 40 * time.Millisecond
	out := openLoop(schedule{due: due}, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, o := range out[1:] {
		k := i + 1
		lat := dueLatency(o.due, o.end)
		if lat < stall-due[k] {
			t.Errorf("request %d: due latency %v, want at least %v", k, lat, stall-due[k])
		}
		if o.end-o.start > 20*time.Millisecond {
			t.Errorf("request %d: service time %v should be near zero", k, o.end-o.start)
		}
	}
	tr := summarizeTrial(out)
	if tr.backlogMax < 8 {
		t.Errorf("backlog_max = %d, want ≥ 8 (all later requests were due during the stall)", tr.backlogMax)
	}
	if tr.lat[nClasses][len(tr.lat[nClasses])-1] < ms(stall)-1 {
		t.Errorf("worst latency %v ms, want ≥ %v", tr.lat[nClasses][len(tr.lat[nClasses])-1], ms(stall))
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	out := []outcome{{due: 0, start: 0, end: time.Millisecond, ok: true}, {due: 0, start: 0, end: time.Millisecond, ok: false}}
	tr := summarizeTrial(out)
	if tr.failed != 1 || !math.IsInf(tr.lat[nClasses][1], 1) {
		t.Fatalf("failed=%d latencies=%v: a failure must count as +Inf", tr.failed, tr.lat[nClasses])
	}
}

func TestBacklogGrowing(t *testing.T) {
	const limit = 100.0
	flat := make([]float64, 400)
	ramp := make([]float64, 400)
	noisy := make([]float64, 400)
	for i := range flat {
		flat[i] = 0.2
		ramp[i] = float64(i) * 0.5 // climbs to 200 ms
		noisy[i] = 0.2
		if i%37 == 0 {
			noisy[i] = 80 // occasional spikes, not a trend
		}
	}
	if backlogGrowing(flat, limit) {
		t.Error("flat lag reported as growing")
	}
	if backlogGrowing(noisy, limit) {
		t.Error("spiky but flat lag reported as growing")
	}
	if !backlogGrowing(ramp, limit) {
		t.Error("ramping lag not reported as growing")
	}
	if backlogGrowing(ramp[:4], limit) {
		t.Error("too few samples to judge")
	}
}

func TestSearchMaxRate(t *testing.T) {
	for _, capacity := range []float64{437, 120, 1599} {
		var tried []float64
		best, probes := searchMaxRate(100, 1600, 0.05, func(rate float64) bool {
			tried = append(tried, rate)
			return rate <= capacity
		})
		if best > capacity || (capacity < 1600 && best < capacity/1.05) {
			t.Errorf("capacity %g: best %g not within 5%% below", capacity, best)
		}
		if probes != len(tried) || probes > 6 {
			t.Errorf("capacity %g: %d probes (%v)", capacity, probes, tried)
		}
	}
	if best, _ := searchMaxRate(100, 400, 0.05, func(float64) bool { return false }); best != 100 {
		t.Errorf("nothing passes: best %g, want the bracket's low end", best)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestStratifiedKeepsTheMixAcrossSeeds(t *testing.T) {
	means := map[int64]float64{}
	for seed := int64(1); seed <= 5; seed++ {
		sizes := stratified(newRand(seed), 20, 1<<18, 1<<21)
		sort.Ints(sizes)
		sum := 0
		for _, s := range sizes {
			sum += s
		}
		means[seed] = float64(sum) / 20
	}
	for seed, m := range means {
		if math.Abs(m/means[1]-1) > 0.1 {
			t.Errorf("seed %d: mean size %g differs from seed 1's %g by more than 10%%", seed, m, means[1])
		}
	}
}
