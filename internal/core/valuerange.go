package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ieee"
	"repro/internal/kernels"
)

// The value-range scan behind relative and fixed-ratio bounds. A relative
// bound is ErrorBound·(max−min) over the whole field, so the scan touches
// every value before the first block can be encoded; run as a scalar loop on
// the caller it cost about half of a parallel encode pass. It runs on the
// dispatched Stats kernel instead, split into fixed-size chunks that the
// engine's persistent pool claims off an atomic cursor, under the same
// serial-fallback policy as the encoder.

// rangeChunk is the scan's work-claim granularity in values: large enough
// that one cursor increment and one kernel call vanish against the scan,
// small enough that a field splits into many more chunks than workers.
const rangeChunk = 64 << 10

// ValueRange returns the minimum and maximum of data (which must be
// non-empty) with the sequential compare fold's semantics: a NaN at data[0]
// poisons both results, a NaN anywhere else is skipped, and ±Inf are
// ordinary values. The results match that fold bit for bit, except that the
// sign of a zero extreme may differ when the other extreme is distinct —
// which cannot change float64(mx)−float64(mn) or |mx|, the only quantities
// bound resolution reads. workers ≤ 1 scans on the calling goroutine, as do
// inputs the engine would encode serially (see serialFaster).
func ValueRange[T Float](data []T, workers int) (mn, mx T) {
	if ieee.Width[T]() == 4 {
		a, b := valueRange(asF32(data), workers, kernels.K32.Stats, &rangeJobs32)
		return T(a), T(b)
	}
	a, b := valueRange(asF64(data), workers, kernels.K64.Stats, &rangeJobs64)
	return T(a), T(b)
}

func valueRange[F float32 | float64](data []F, workers int, stats func([]F) (F, F, bool), jobs *rangeFreelist[F]) (mn, mx F) {
	nchunks := (len(data) + rangeChunk - 1) / rangeChunk
	if workers <= 1 || nchunks < 2 || serialFaster(ieee.Width[F]()*len(data)) {
		mn, mx, _ = stats(data)
	} else {
		participants := min(workers, nchunks)
		j := jobs.get()
		j.data, j.nchunks, j.stats = data, nchunks, stats
		j.parts = slices.Grow(j.parts[:0], participants)[:participants]
		j.cursor.Store(0)
		j.ids.Store(0)
		j.wg.Add(participants)
		for range participants - 1 {
			encPool.submit(j.run)
		}
		j.run()
		j.wg.Wait()
		mn, mx = data[0], data[0]
		for _, p := range j.parts {
			mn, mx = foldRange(mn, mx, p[0], p[1])
		}
		j.data, j.stats = nil, nil
		jobs.put(j)
	}
	return mn, mx
}

// foldRange folds a part's extremes into a running range seeded with
// data[0]. Replacing only on strict compares is what keeps the sequential
// fold's semantics however the chunks and participants are ordered: a NaN
// seed is never replaced, so a NaN at data[0] poisons the range, and the
// seed survives whenever every value equals it (±0 included).
func foldRange[F float32 | float64](mn, mx, pmn, pmx F) (F, F) {
	if pmn < mn {
		mn = pmn
	}
	if pmx > mx {
		mx = pmx
	}
	return mn, mx
}

// rangeJob is the per-call state of one parallel scan. run is bound once at
// construction, so handing it to the pool allocates nothing.
type rangeJob[F float32 | float64] struct {
	data    []F
	nchunks int
	stats   func([]F) (F, F, bool)
	parts   [][2]F // each participant's (min, max)
	cursor  atomic.Int64
	ids     atomic.Int64
	wg      sync.WaitGroup
	run     func()
}

func newRangeJob[F float32 | float64]() *rangeJob[F] {
	j := new(rangeJob[F])
	j.run = j.scan
	return j
}

// scan claims chunks until the cursor runs out. The Stats contract keeps a
// leading NaN sticky for the whole call, so each chunk's leading NaNs are
// skipped first: only a NaN at data[0] may poison the range, and the seed
// already carries that one.
func (j *rangeJob[F]) scan() {
	mn, mx := j.data[0], j.data[0]
	for {
		c := int(j.cursor.Add(1) - 1)
		if c >= j.nchunks {
			break
		}
		s := j.data[c*rangeChunk : min((c+1)*rangeChunk, len(j.data))]
		for len(s) > 0 && s[0] != s[0] {
			s = s[1:]
		}
		if len(s) > 0 {
			cmn, cmx, _ := j.stats(s)
			mn, mx = foldRange(mn, mx, cmn, cmx)
		}
	}
	j.parts[j.ids.Add(1)-1] = [2]F{mn, mx}
	j.wg.Done()
}

// rangeFreelist recycles scan jobs. It is a bounded mutex-guarded list
// rather than a sync.Pool so that a warm scan allocates nothing even under
// the race detector, which randomly drops sync.Pool puts.
type rangeFreelist[F float32 | float64] struct {
	mu   sync.Mutex
	free []*rangeJob[F]
}

const maxRangeJobsFree = 8

var (
	rangeJobs32 rangeFreelist[float32]
	rangeJobs64 rangeFreelist[float64]
)

func (l *rangeFreelist[F]) get() *rangeJob[F] {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		j := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return j
	}
	l.mu.Unlock()
	return newRangeJob[F]()
}

func (l *rangeFreelist[F]) put(j *rangeJob[F]) {
	l.mu.Lock()
	if len(l.free) < maxRangeJobsFree {
		l.free = append(l.free, j)
	}
	l.mu.Unlock()
}
