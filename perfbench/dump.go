package main

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	szx "repro"
)

// The dump workload is the paper's §7 checkpoint dump/load: a multi-field
// snapshot of float32 fields plus float64 fields widened from them, each
// field compressed with one CompressParallelInto and restored with one
// DecompressParallelInto at nproc workers under a value-range-relative
// bound. The snapshot is at least four times the last-level cache, made of
// copies of a few distinct fields laid side by side, so every field is read
// from memory rather than from cache.

// dumpSource is one distinct field and its serial reference stream.
type dumpSource struct {
	name  string
	d32   []float32 // exactly one of d32 and d64 is set
	d64   []float64
	bound float64
	ref   []byte // szx.CompressInto of the field, serial
}

func (s dumpSource) bytes() int {
	if s.d64 != nil {
		return 8 * len(s.d64)
	}
	return 4 * len(s.d32)
}

// dumpField is one field of the snapshot: a copy of a source in the big
// buffers.
type dumpField struct {
	src int
	d32 []float32
	d64 []float64
}

type snapshot struct {
	sources []dumpSource
	f32     []float32
	f64     []float64
	fields  []dumpField
	maxN    int
}

var dumpOpt = szx.Options{ErrorBound: relBound, Mode: szx.BoundRelative}

// dumpApps are the distinct fields: Miranda in float32, Hurricane in
// float32 and widened to float64.
var dumpApps = []appScale{{"miranda", 4}, {"hurricane", 4}}

// snapshotBytes is the snapshot size: four times the reported LLC.
func snapshotBytes() int64 {
	llc := llcBytes()
	if llc <= 0 {
		llc = 32 << 20
	}
	return max(4*llc, 256<<20)
}

// buildSnapshot generates the distinct fields from the seed, computes their
// reference streams, and lays copies side by side up to snapshotBytes,
// reusing prev's buffers when given.
func buildSnapshot(seed int64, prev *snapshot) (*snapshot, error) {
	fs := genFields(seed, dumpApps...)
	s := &snapshot{}
	for _, f := range fs {
		s.sources = append(s.sources, dumpSource{name: f.name, d32: f.data, bound: f.bound})
	}
	for _, f := range fs {
		if strings.HasPrefix(f.name, "Hurricane/") {
			s.sources = append(s.sources, dumpSource{name: f.name + "/f64", d64: widen(f.data), bound: f.bound})
		}
	}
	distinct, n32, n64 := 0, 0, 0
	for i := range s.sources {
		src := &s.sources[i]
		var err error
		if src.d64 != nil {
			src.ref, err = szx.CompressInto(nil, src.d64, dumpOpt)
			n64 += len(src.d64)
			s.maxN = max(s.maxN, len(src.d64))
		} else {
			src.ref, err = szx.CompressInto(nil, src.d32, dumpOpt)
			n32 += len(src.d32)
			s.maxN = max(s.maxN, len(src.d32))
		}
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", src.name, err)
		}
		distinct += src.bytes()
	}
	copies := int((snapshotBytes() + int64(distinct) - 1) / int64(distinct))
	if prev != nil && len(prev.f32) == copies*n32 && len(prev.f64) == copies*n64 {
		s.f32, s.f64 = prev.f32, prev.f64
	} else {
		s.f32, s.f64 = make([]float32, copies*n32), make([]float64, copies*n64)
	}
	o32, o64 := 0, 0
	for c := 0; c < copies; c++ {
		for i, src := range s.sources {
			f := dumpField{src: i}
			if src.d64 != nil {
				f.d64 = s.f64[o64 : o64+len(src.d64)]
				o64 += copy(f.d64, src.d64)
			} else {
				f.d32 = s.f32[o32 : o32+len(src.d32)]
				o32 += copy(f.d32, src.d32)
			}
			s.fields = append(s.fields, f)
		}
	}
	return s, nil
}

func (s *snapshot) distinctBytes() int64 {
	n := int64(0)
	for _, src := range s.sources {
		n += int64(src.bytes())
	}
	return n
}

func (s *snapshot) totalBytes() int64 { return int64(4*len(s.f32) + 8*len(s.f64)) }

// dumpRound is one pass over the snapshot.
type dumpRound struct {
	inBytes, outBytes int64
	compress, restore time.Duration
	ops               []float64 // per-op latency, ms
}

// dumpPass compresses and restores every field once, checking each stream
// against its serial reference and each restored value against its bound.
func dumpPass(r *run, s *snapshot, sp *spans, comp []byte, out32 []float32, out64 []float64) dumpRound {
	var rd dumpRound
	for _, f := range s.fields {
		src := s.sources[f.src]
		root := sp.root("dump.field")
		r.chk.attempt(2)
		var err error
		t0 := time.Now()
		c := root.child("core.CompressParallelInto")
		if f.d64 != nil {
			comp, err = szx.CompressParallelInto(comp[:0], f.d64, dumpOpt, r.workers)
		} else {
			comp, err = szx.CompressParallelInto(comp[:0], f.d32, dumpOpt, r.workers)
		}
		c.end(root)
		t1 := time.Now()
		if !r.chk.err("compress "+src.name, err) {
			root.call("bench.check_bytes", func() { r.chk.sameBytes("parallel stream of "+src.name, comp, src.ref) })
		}
		t2 := time.Now()
		c = root.child("core.DecompressParallelInto")
		if f.d64 != nil {
			out64, err = szx.DecompressParallelInto(out64[:0], comp, r.workers)
		} else {
			out32, err = szx.DecompressParallelInto(out32[:0], comp, r.workers)
		}
		c.end(root)
		t3 := time.Now()
		if !r.chk.err("restore "+src.name, err) {
			root.call("bench.check_bound", func() {
				if f.d64 != nil {
					withinBound(r.chk, "restored "+src.name, f.d64, out64, src.bound)
				} else {
					withinBound(r.chk, "restored "+src.name, f.d32, out32, src.bound)
				}
			})
		}
		root.end(ref{})
		rd.inBytes += int64(src.bytes())
		rd.outBytes += int64(len(comp))
		rd.compress += t1.Sub(t0)
		rd.restore += t3.Sub(t2)
		rd.ops = append(rd.ops, ms(t1.Sub(t0)), ms(t3.Sub(t2)))
	}
	return rd
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// roundList formats one figure per round.
func roundList[R any](rounds []R, f func(R) float64) string {
	var b strings.Builder
	for _, rd := range rounds {
		fmt.Fprintf(&b, " %.0f", f(rd))
	}
	return b.String()
}

func mbs(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// dumpRounds runs passes until the deadline (at least two) and returns the
// per-round results.
func dumpRounds(r *run, s *snapshot, sp *spans, until time.Time) []dumpRound {
	comp := make([]byte, 0, 8*s.maxN+(8<<10))
	out32 := make([]float32, 0, s.maxN)
	out64 := make([]float64, 0, s.maxN)
	var rounds []dumpRound
	for len(rounds) < 2 || time.Now().Before(until) {
		rd := dumpPass(r, s, sp, comp, out32, out64)
		rounds = append(rounds, rd)
		r.repeat("dump.fields", int64(len(rd.ops)/2))
		r.repeat("dump.compressed_bytes", rd.outBytes)
	}
	return rounds
}

// summarizeDump turns rounds into the end-to-end metrics: per-round
// throughputs reduced by median, and each round's latencies.
func summarizeDump(rounds []dumpRound) (cmb, dmb, ratio, opsPerS float64, lat [][]float64) {
	var cs, ds, rs []float64
	var in, out int64
	for _, rd := range rounds {
		cs = append(cs, mbs(rd.inBytes, rd.compress))
		ds = append(ds, mbs(rd.inBytes, rd.restore))
		rs = append(rs, float64(len(rd.ops))/(rd.compress+rd.restore).Seconds())
		in += rd.inBytes
		out += rd.outBytes
		lat = append(lat, rd.ops)
	}
	return median(cs), median(ds), float64(in) / float64(out), median(rs), lat
}

func runDump(r *run) error {
	var s *snapshot
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if s, err = buildSnapshot(r.seed, s); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.distinctBytes, r.totalBytes = s.distinctBytes(), s.totalBytes()
	info("dump: %d fields, %d distinct (%.1f MiB distinct, %.1f MiB total, LLC %.0f MiB), workers %d",
		len(s.fields), len(s.sources), float64(r.distinctBytes)/(1<<20), float64(r.totalBytes)/(1<<20),
		float64(llcBytes())/(1<<20), r.workers)

	if r.traced {
		plain := dumpRounds(r, s, nil, r.deadline(0.3))
		traced := dumpRounds(r, s, r.sp, r.deadline(0.3))
		c0, _, _, _, lat := summarizeDump(plain)
		c1, _, _, _, _ := summarizeDump(traced)
		setLatency(r, "dump op (one field compress or restore), windows are passes", lat)
		r.setLayer("bench.trace_overhead_pct", 100*(c0/c1-1), "%")
		r.setLayer("bench.self_pct", 100*r.sp.selfShare(), "%")
		// The ladder replays the distinct fields only; release the copies.
		s.f32, s.f64, s.fields = nil, nil, nil
		debug.FreeOSMemory()
		in := ladderInputs{opt: func(float64) szx.Options { return dumpOpt }, planOpt: dumpOpt}
		for _, src := range s.sources {
			if src.d64 != nil {
				in.a64 = append(in.a64, src.d64)
				in.b64 = append(in.b64, src.bound)
			} else {
				in.a32 = append(in.a32, piece{data: src.d32, bound: src.bound})
			}
		}
		return runLadder(r, in)
	}

	dumpRounds(r, s, nil, r.deadline(0.1)) // warm-up, not reported
	rounds := dumpRounds(r, s, nil, r.deadline(0.9))
	cmb, dmb, ratio, opsPerS, lat := summarizeDump(rounds)
	setLatency(r, "dump op (one field compress or restore), windows are passes", lat)
	r.setE2E("compress_mb_s", cmb, "MB/s")
	r.setE2E("decompress_mb_s", dmb, "MB/s")
	r.setE2E("ratio", ratio, "x")
	r.setE2E("max_rps", opsPerS, "1/s")
	r.setE2E("setup_s", median(setups), "s")
	info("dump: %d rounds, compress MB/s by round %s", len(rounds), roundList(rounds, func(rd dumpRound) float64 { return mbs(rd.inBytes, rd.compress) }))
	return nil
}

// setLatency prints the p50 of all latencies pooled and the median of the
// windows' p99s with the sample counts, and in a traced run records them as
// ops.p50_ms and ops.p99_ms. A window too small for ten samples beyond its
// p99 is a failed check of the benchmark itself.
func setLatency(r *run, what string, windows [][]float64) {
	var pooled []float64
	for _, w := range windows {
		pooled = append(pooled, w...)
	}
	p50, _ := percentile(sortedCopy(pooled), 50)
	p99, ok := medianP99(windows)
	info("%s latency: n=%d in %d windows, p50_ms %.4f ms, p99_ms (median window p99) %.4f ms", what, len(pooled), len(windows), p50, p99)
	if !ok {
		r.chk.fail("%s: a window leaves fewer than %d samples beyond p99", what, minBeyond)
	}
	if r.traced {
		r.setLayer("ops.p50_ms", p50, "ms")
		r.setLayer("ops.p99_ms", p99, "ms")
	}
}
