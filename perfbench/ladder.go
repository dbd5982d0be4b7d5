package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	szx "repro"
	"repro/internal/bitio"
	"repro/internal/ieee"
	"repro/internal/kernels"
	"repro/service"
	"repro/telemetry"
)

// The traced run's per-layer metrics: the workload's own arrays replayed
// through each layer's public functions, timed from the benchmark, plus
// the ladder of throughputs on one fixed 8 MiB float32 input built from the
// workload's values and the loss between adjacent rungs. Every replayed
// call's error is counted by the run's checker.

// ladderInputs are a workload's arrays and options as the ladder replays
// them.
type ladderInputs struct {
	a32       []piece     // float32 arrays with their absolute bounds
	a64       [][]float64 // float64 arrays (widened from a32 when empty)
	b64       []float64
	opt       func(bound float64) szx.Options // per-array options
	planOpt   szx.Options                     // plan and archive options
	telemetry bool                            // codec telemetry as the workload runs it
}

// capBytes bounds each layer's replay so the traced run stays short.
const capBytes = 16 << 20

// reps is how many times each timed replay runs; the median is kept.
const reps = 5

// timed runs fn reps times and returns the median duration.
func timed(fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// upTo returns the leading pieces totalling at most limit bytes (at least
// one).
func upTo(ps []piece, limit int) []piece {
	n := 0
	for i, p := range ps {
		n += 4 * len(p.data)
		if n > limit && i > 0 {
			return ps[:i]
		}
	}
	return ps
}

// flat concatenates the pieces' values up to n values, tiling if short.
func flat(ps []piece, n int) []float32 {
	out := make([]float32, 0, n)
	for len(out) < n {
		for _, p := range ps {
			out = append(out, p.data[:min(len(p.data), n-len(out))]...)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// split cuts values into pieces of size values under one bound.
func split(v []float32, size int, bound float64) []piece {
	var out []piece
	for off := 0; off < len(v); off += size {
		out = append(out, piece{data: v[off:min(off+size, len(v))], bound: bound})
	}
	return out
}

func totalValues(ps []piece) int {
	n := 0
	for _, p := range ps {
		n += len(p.data)
	}
	return n
}

func runLadder(r *run, in ladderInputs) error {
	if in.telemetry {
		telemetry.Enable()
	} else {
		telemetry.Disable()
	}
	a32 := upTo(in.a32, capBytes)
	if len(in.a64) == 0 {
		w := flat(a32, min(2<<20, totalValues(a32)))
		in.a64, in.b64 = [][]float64{widen(w)}, []float64{absBound(w)}
	}
	// The fixed ladder input: 8 MiB of the workload's own values.
	fixed := flat(in.a32, 2<<20)
	fixedBound := absBound(fixed)

	steps := []struct {
		name string
		fn   func() error
	}{
		{"kernels", func() error { return kernelLayer(r, a32, in) }},
		{"core", func() error { return coreLayer(r, a32, in) }},
		{"plan", func() error { planLayer(r, upTo(in.a32, capBytes/2), in.planOpt); return nil }},
		{"pipeline", func() error { pipelineLayer(r, a32, in.opt); return nil }},
		{"archive", func() error { archiveLayer(r, a32, in.planOpt); return nil }},
		{"timestream", func() error { timestreamLayer(r, fixed[:1<<20], fixedBound); return nil }},
		{"batch", func() error { batchLayer(r, split(fixed[:1<<20], 4<<10, fixedBound)); return nil }},
		{"service", func() error { return serviceLayers(r, fixed, fixedBound) }},
		{"ladder", func() error { return ladderRungs(r, fixed, fixedBound) }},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
		info("layer %s replayed in %.2fs", s.name, time.Since(t0).Seconds())
	}
	// Closed-loop workloads have no generator to fall behind.
	if _, ok := r.layer["loadgen.lag_p99_ms"]; !ok {
		r.setLayer("loadgen.lag_p99_ms", 0, "ms")
		r.setLayer("loadgen.backlog_max", 0, "count")
	}
	return nil
}

// blockPlan is one nonconstant block as the codec encodes it.
type blockPlan[T float32 | float64] struct {
	blk       []T
	mu        T
	reqLen    int
	e         float64
	lead, mid []byte
}

type statsFn[T float32 | float64] func([]T) (T, T, bool)
type encodeFn[T float32 | float64] func(lead, mid []byte, blk []T, mu T, reqLen int, guarded bool, eSafe T, e float64, scr *kernels.Scratch) (int, bool)
type decodeFn[T float32 | float64] func(out []T, lead, mid []byte, mu T, reqLen int) bool

// planBlocks runs the codec's per-block decisions (stats, constant test,
// required length, guard retries) on every block of arrays and returns all
// blocks and the nonconstant ones with their encoded lead and mid bytes.
func planBlocks[T float32 | float64](arrays [][]T, bounds []float64, stats statsFn[T], enc encodeFn[T]) (all [][]T, nc []blockPlan[T]) {
	scr := kernels.GetScratch()
	defer kernels.PutScratch(scr)
	for ai, a := range arrays {
		e := bounds[ai]
		for off := 0; off < len(a); off += szx.DefaultBlockSize {
			blk := a[off:min(off+szx.DefaultBlockSize, len(a))]
			all = append(all, blk)
			mn, mx, noNaN := stats(blk)
			var mu T
			if ieee.Width[T]() == 4 {
				mu = T(float32((float64(mn) + float64(mx)) / 2))
			} else {
				mu = mn/2 + mx/2
			}
			rad := max(float64(mx)-float64(mu), float64(mu)-float64(mn))
			if rad <= e && noNaN {
				continue
			}
			reqLen, lossless := ieee.ReqLength[T](ieee.Exponent64(rad), ieee.Exponent64(e))
			lead := make([]byte, bitio.PackedLen(len(blk)))
			mid := make([]byte, 8*len(blk)+8)
			for {
				if lossless {
					mu = 0
				}
				n, ok := enc(lead, mid, blk, mu, reqLen, !lossless, T(e*(1-1e-6)), e, scr)
				if ok {
					nc = append(nc, blockPlan[T]{blk: blk, mu: mu, reqLen: reqLen, e: e, lead: lead, mid: mid[:n]})
					break
				}
				reqLen += 8
				if reqLen >= ieee.FullBits[T]() {
					reqLen, lossless = ieee.FullBits[T](), true
				}
			}
		}
	}
	return all, nc
}

// kernelTimes times the three kernels over the planned blocks.
func kernelTimes[T float32 | float64](all [][]T, nc []blockPlan[T], stats statsFn[T], enc encodeFn[T], dec decodeFn[T]) (st, en, de time.Duration, encBytes, decBytes int64) {
	scr := kernels.GetScratch()
	defer kernels.PutScratch(scr)
	lead := make([]byte, bitio.PackedLen(kernels.MaxBlockSize))
	mid := make([]byte, 8*kernels.MaxBlockSize+8)
	out := make([]T, kernels.MaxBlockSize)
	st = timed(func() {
		for _, b := range all {
			stats(b)
		}
	})
	en = timed(func() {
		for _, b := range nc {
			enc(lead[:len(b.lead)], mid, b.blk, b.mu, b.reqLen, true, T(b.e*(1-1e-6)), b.e, scr)
		}
	})
	de = timed(func() {
		for _, b := range nc {
			dec(out[:len(b.blk)], b.lead, b.mid, b.mu, b.reqLen)
		}
	})
	es := int64(ieee.Width[T]())
	for _, b := range nc {
		encBytes += es*int64(len(b.blk)) + int64(len(b.lead)+len(b.mid))
		decBytes += int64(len(b.lead)+len(b.mid)) + es*int64(len(b.blk))
	}
	return
}

func kernelLayer(r *run, a32 []piece, in ladderInputs) error {
	arr32, b32 := make([][]float32, len(a32)), make([]float64, len(a32))
	for i, p := range a32 {
		arr32[i], b32[i] = p.data, p.bound
	}
	all32, nc32 := planBlocks(arr32, b32, kernels.K32.Stats, kernels.K32.EncodeScan)
	all64, nc64 := planBlocks(in.a64, in.b64, kernels.K64.Stats, kernels.K64.EncodeScan)
	s32, e32, d32, eb, db := kernelTimes(all32, nc32, kernels.K32.Stats, kernels.K32.EncodeScan, kernels.K32.DecodeScan)
	s64, e64, d64, _, _ := kernelTimes(all64, nc64, kernels.K64.Stats, kernels.K64.EncodeScan, kernels.K64.DecodeScan)
	per := func(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }
	r.setLayer("kernels.stats_ns_block.f32", per(s32, len(all32)), "ns")
	r.setLayer("kernels.stats_ns_block.f64", per(s64, len(all64)), "ns")
	r.setLayer("kernels.encode_ns_block.f32", per(e32, len(nc32)), "ns")
	r.setLayer("kernels.encode_ns_block.f64", per(e64, len(nc64)), "ns")
	r.setLayer("kernels.decode_ns_block.f32", per(d32, len(nc32)), "ns")
	r.setLayer("kernels.decode_ns_block.f64", per(d64, len(nc64)), "ns")
	r.setLayer("kernels.encode_bytes_block", float64(eb)/float64(max(len(nc32), 1)), "B")
	r.setLayer("kernels.decode_bytes_block", float64(db)/float64(max(len(nc32), 1)), "B")
	r.repeat("ladder.kernels.blocks.f32", int64(len(all32)))
	r.repeat("ladder.kernels.nonconstant_blocks.f32", int64(len(nc32)))

	// The kernels' share of the serial codec on the same arrays.
	comps32 := make([][]byte, len(arr32))
	comps64 := make([][]byte, len(in.a64))
	var err error
	c := timed(func() {
		for i, a := range arr32 {
			comps32[i], err = szx.CompressInto(comps32[i][:0], a, in.opt(b32[i]))
			r.chk.op("kernels replay: compress", err)
		}
		for i, a := range in.a64 {
			comps64[i], err = szx.CompressInto(comps64[i][:0], a, in.opt(in.b64[i]))
			r.chk.op("kernels replay: compress", err)
		}
	})
	var o32 []float32
	var o64 []float64
	d := timed(func() {
		for _, cmp := range comps32 {
			o32, err = szx.DecompressInto(o32[:0], cmp)
			r.chk.op("kernels replay: decompress", err)
		}
		for _, cmp := range comps64 {
			o64, err = szx.DecompressInto(o64[:0], cmp)
			r.chk.op("kernels replay: decompress", err)
		}
	})
	r.setLayer("kernels.share_compress", float64(s32+e32+s64+e64)/float64(c), "ratio")
	r.setLayer("kernels.share_decompress", float64(d32+d64)/float64(d), "ratio")
	return nil
}

func coreLayer(r *run, a32 []piece, in ladderInputs) error {
	var bytesIn int64
	maxN := 0
	for _, p := range a32 {
		bytesIn += int64(4 * len(p.data))
		maxN = max(maxN, len(p.data))
	}
	for _, a := range in.a64 {
		bytesIn += int64(8 * len(a))
		maxN = max(maxN, len(a))
	}
	dst := make([]byte, 0, 8*maxN+(8<<10))
	o32, o64 := make([]float32, 0, maxN), make([]float64, 0, maxN)
	comps := make([][]byte, 0, len(a32)+len(in.a64))
	var blocks, constant int
	for _, p := range a32 {
		c, st, err := szx.CompressIntoStats(nil, p.data, in.opt(p.bound))
		if err != nil {
			return err
		}
		comps = append(comps, c)
		blocks, constant = blocks+st.Blocks, constant+st.ConstantBlocks
	}
	for i, a := range in.a64 {
		c, st, err := szx.CompressIntoStats(nil, a, in.opt(in.b64[i]))
		if err != nil {
			return err
		}
		comps = append(comps, c)
		blocks, constant = blocks+st.Blocks, constant+st.ConstantBlocks
	}
	var err error
	compress := func(workers int) func() {
		return func() {
			for _, p := range a32 {
				dst, err = szx.CompressParallelInto(dst[:0], p.data, in.opt(p.bound), workers)
				r.chk.op("core replay: compress", err)
			}
			for i, a := range in.a64 {
				dst, err = szx.CompressParallelInto(dst[:0], a, in.opt(in.b64[i]), workers)
				r.chk.op("core replay: compress", err)
			}
		}
	}
	decompress := func(workers int) func() {
		return func() {
			for i, c := range comps {
				if i < len(a32) {
					o32, err = szx.DecompressParallelInto(o32[:0], c, workers)
				} else {
					o64, err = szx.DecompressParallelInto(o64[:0], c, workers)
				}
				r.chk.op("core replay: decompress", err)
			}
		}
	}
	sc, sd := mbs(bytesIn, timed(compress(1))), mbs(bytesIn, timed(decompress(1)))
	pc, pd := mbs(bytesIn, timed(compress(r.workers))), mbs(bytesIn, timed(decompress(r.workers)))
	r.setLayer("core.serial_compress_mb_s", sc, "MB/s")
	r.setLayer("core.serial_decompress_mb_s", sd, "MB/s")
	r.setLayer("core.parallel_compress_mb_s", pc, "MB/s")
	r.setLayer("core.parallel_decompress_mb_s", pd, "MB/s")
	r.setLayer("core.parallel_efficiency_compress", pc/(sc*float64(r.workers)), "ratio")
	r.setLayer("core.parallel_efficiency_decompress", pd/(sd*float64(r.workers)), "ratio")
	r.setLayer("core.constant_block_frac", float64(constant)/float64(max(blocks, 1)), "ratio")
	r.repeat("ladder.core.blocks", int64(blocks))
	r.repeat("ladder.core.constant_blocks", int64(constant))

	// Warm serial allocations per call.
	p := a32[0]
	buf := make([]byte, 0, 8*len(p.data)+(8<<10))
	r.setLayer("core.allocs_per_op", allocsTwice(r, "core.allocs_per_op", 20, func() {
		buf, err = szx.CompressInto(buf[:0], p.data, in.opt(p.bound))
		r.chk.op("core replay: allocations", err)
	}), "count")
	return nil
}

// allocsTwice measures allocations per call of fn twice and records both
// counts, which must repeat exactly.
func allocsTwice(r *run, name string, runs int, fn func()) float64 {
	var a float64
	for range 2 {
		a = testing.AllocsPerRun(runs, fn)
		r.repeat("ladder."+name, int64(a))
	}
	return a
}

func planLayer(r *run, ps []piece, opt szx.Options) {
	probes := 0
	resolve := timed(func() {
		probes = 0
		for _, p := range ps {
			pl, err := szx.ResolvePlan(p.data, opt)
			r.chk.op("plan replay", err)
			probes += pl.Probes
		}
	})
	var dst []byte
	var err error
	comp := timed(func() {
		for _, p := range ps {
			dst, err = szx.CompressInto(dst[:0], p.data, opt)
			r.chk.op("plan replay: compress", err)
		}
	})
	r.setLayer("plan.resolve_us", float64(resolve)/1e3/float64(len(ps)), "us")
	r.setLayer("plan.share_compress", float64(resolve)/float64(comp), "ratio")
	r.setLayer("plan.ratio_probes", float64(probes)/float64(len(ps)), "count")
	r.repeat("ladder.plan.ratio_probes", int64(probes))
}

// pipeWrite writes each piece as its own SZXS stream and returns the
// streams and the frame count.
func pipeWrite(r *run, ps []piece, opt func(float64) szx.Options, parallelism int) ([][]byte, int) {
	out := make([][]byte, len(ps))
	frames := 0
	for i, p := range ps {
		var buf bytes.Buffer
		pw := szx.NewPipeWriter(&buf, opt(p.bound), pipeChunk, parallelism)
		err := pw.Write(p.data)
		if cerr := pw.Close(); err == nil {
			err = cerr
		}
		r.chk.op("pipeline replay: write", err)
		out[i] = buf.Bytes()
		frames += (len(p.data) + pipeChunk - 1) / pipeChunk
	}
	return out, frames
}

func pipelineLayer(r *run, ps []piece, opt func(float64) szx.Options) {
	n := int64(4 * totalValues(ps))
	var streams [][]byte
	var frames int
	w := timed(func() { streams, frames = pipeWrite(r, ps, opt, r.workers) })
	rd := timed(func() {
		for _, s := range streams {
			pr := szx.NewPipeReader(bytes.NewReader(s), r.workers)
			_, err := pr.ReadAll()
			r.chk.op("pipeline replay: read", err)
			pr.Close()
		}
	})
	r.setLayer("pipeline.write_mb_s", mbs(n, w), "MB/s")
	r.setLayer("pipeline.read_mb_s", mbs(n, rd), "MB/s")
	// Per-frame overhead: a one-worker pipe against CompressInto on the
	// same chunks.
	one := timed(func() { pipeWrite(r, ps, opt, 1) })
	var dst []byte
	var err error
	chunks := timed(func() {
		for _, p := range ps {
			for off := 0; off < len(p.data); off += pipeChunk {
				dst, err = szx.CompressInto(dst[:0], p.data[off:min(off+pipeChunk, len(p.data))], opt(p.bound))
				r.chk.op("pipeline replay: chunk", err)
			}
		}
	})
	r.setLayer("pipeline.frame_overhead_us", float64(one-chunks)/1e3/float64(frames), "us")
	perWrite := allocsTwice(r, "pipeline.allocs_per_write", 1, func() { pipeWrite(r, ps, opt, 1) })
	r.setLayer("pipeline.allocs_per_frame", perWrite/float64(frames), "count")
	r.repeat("ladder.pipeline.frames", int64(frames))
}

func archiveLayer(r *run, ps []piece, opt szx.Options) {
	n := int64(4 * totalValues(ps))
	var blob []byte
	w := timed(func() {
		aw := szx.NewPipelinedArchiveWriter(opt, r.workers)
		for i, p := range ps {
			r.chk.op("archive replay: add", aw.AddField("f"+strconv.Itoa(i), []int{len(p.data)}, p.data))
		}
		blob = aw.Bytes()
		r.chk.op("archive replay: flush", aw.Err())
	})
	rd := timed(func() {
		a, err := szx.OpenArchive(blob)
		if r.chk.op("archive replay: open", err) {
			return
		}
		for _, f := range a.Fields() {
			_, _, err := a.Read(f.Name)
			r.chk.op("archive replay: read", err)
		}
	})
	r.setLayer("archive.write_mb_s", mbs(n, w), "MB/s")
	r.setLayer("archive.read_mb_s", mbs(n, rd), "MB/s")
	r.repeat("ladder.archive.bytes", int64(len(blob)))
}

func timestreamLayer(r *run, v []float32, bound float64) {
	const frame = 4 << 10
	var blob []byte
	nf := len(v) / frame
	w := timed(func() {
		var buf bytes.Buffer
		tw, err := szx.NewTimeStreamWriter(&buf, absOpt(bound))
		if r.chk.op("timestream replay: open", err) {
			return
		}
		for i := range nf {
			r.chk.op("timestream replay: write", tw.WriteFrame(v[i*frame:(i+1)*frame]))
		}
		r.chk.op("timestream replay: close", tw.Close())
		blob = buf.Bytes()
	})
	rd := timed(func() {
		tr := szx.NewTimeStreamReader(bytes.NewReader(blob))
		for {
			_, err := tr.ReadFrame()
			if errors.Is(err, io.EOF) {
				break
			}
			if r.chk.op("timestream replay: read", err) {
				break
			}
		}
		tr.Close()
	})
	r.setLayer("timestream.write_frames_per_s", float64(nf)/w.Seconds(), "1/s")
	r.setLayer("timestream.read_frames_per_s", float64(nf)/rd.Seconds(), "1/s")
	r.repeat("ladder.timestream.bytes", int64(len(blob)))
}

func batchLayer(r *run, ps []piece) {
	arrays := make([][]float32, len(ps))
	for i, p := range ps {
		arrays[i] = p.data
	}
	opt := absOpt(ps[0].bound)
	opt.Workers = r.workers
	const group = 32
	var errs []error
	checkAll := func(what string, errs []error) {
		for _, err := range errs {
			r.chk.op(what, err)
		}
	}
	comps := make([][][]byte, (len(arrays)+group-1)/group)
	c := timed(func() {
		for g := range comps {
			comps[g], errs = szx.CompressBatch(comps[g], errs, arrays[g*group:min((g+1)*group, len(arrays))], opt)
			checkAll("batch replay: compress", errs)
		}
	})
	var vals [][]float32
	d := timed(func() {
		for _, g := range comps {
			vals, errs = szx.DecompressBatch(vals, errs, g, r.workers)
			checkAll("batch replay: decompress", errs)
		}
	})
	r.setLayer("batch.compress_arrays_per_s", float64(len(arrays))/c.Seconds(), "1/s")
	r.setLayer("batch.decompress_arrays_per_s", float64(len(arrays))/d.Seconds(), "1/s")
}

// discard is a ResponseWriter that keeps the status and drops the body, so
// an in-process replay costs the handler's work and nothing else.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}
func (d *discard) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(p), nil
}

// replay serves one request in process (no socket) and counts a non-200
// answer as a failure.
func replay(r *run, h http.Handler, target string, body []byte) int {
	w := &discard{h: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/octet-stream")
	h.ServeHTTP(w, req)
	r.chk.attempt(1)
	if w.code != http.StatusOK {
		r.chk.fail("handler replay %s: status %d", target, w.code)
	}
	return w.code
}

// szxbBody frames arrays as an SZXB batch request.
func szxbBody(arrays [][]float32) []byte {
	b := append([]byte("SZXB"), 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(arrays)))
	for _, a := range arrays {
		b = binary.LittleEndian.AppendUint32(b, uint32(4*len(a)))
		b = append(b, byteView(a)...)
	}
	return b
}

// medianPer times n calls of fn per sample over reps samples and returns the
// median time per call.
func medianPer(n int, fn func()) time.Duration {
	return timed(func() {
		for range n {
			fn()
		}
	}) / time.Duration(n)
}

// serviceLayers replays small, batch and large requests through szxd's
// handler in process and over a loopback client, with tracing on and off.
func serviceLayers(r *run, fixed []float32, bound float64) error {
	e := strconv.FormatFloat(bound, 'g', -1, 64)
	small := byteView(fixed[:4<<10])
	var arrs [][]float32
	for i := range 32 {
		arrs = append(arrs, fixed[i*(2<<10):(i+1)*(2<<10)])
	}
	batch := szxbBody(arrs)
	large := byteView(fixed[:512<<10])
	on := service.New(service.Config{})
	off := service.New(service.Config{DisableTracing: true})
	smallURL := "/v1/compress?t=f32&e=" + e
	failed0, attempted0 := r.chk.failed, r.chk.attempted
	rq := func(h http.Handler, url string, body []byte) func() {
		return func() { replay(r, h, url, body) }
	}
	hs := medianPer(200, rq(on.Handler(), smallURL, small))
	hb := medianPer(10, rq(on.Handler(), "/v1/batch/compress?t=f32&e="+e, batch))
	hl := medianPer(5, rq(on.Handler(), "/v1/compress?t=f32&workers=-1&e="+e, large))
	r.setLayer("service.handler_us.small", float64(hs)/1e3, "us")
	r.setLayer("service.handler_us.batch", float64(hb)/1e3, "us")
	r.setLayer("service.handler_us.large", float64(hl)/1e3, "us")
	r.setLayer("service.allocs_per_req.small", allocsTwice(r, "service.allocs_per_req.small", 100, rq(on.Handler(), smallURL, small)), "count")

	// Tracing on against off, interleaved.
	var diffs []float64
	for range reps {
		a := medianPer(200, rq(on.Handler(), smallURL, small))
		b := medianPer(200, rq(off.Handler(), smallURL, small))
		diffs = append(diffs, float64(a-b)/1e3)
	}
	r.setLayer("trace.request_overhead_us", median(diffs), "us")

	if _, ok := r.layer["service.rejected_frac"]; !ok {
		// Closed-loop workloads: the replay itself is the service's load.
		r.setLayer("service.rejected_frac", float64(r.chk.failed-failed0)/float64(r.chk.attempted-attempted0), "ratio")
		qw, err := scrapeP99(on.Handler(), "szx_service_queue_wait_seconds")
		if err != nil {
			return err
		}
		r.setLayer("service.queue_wait_p99_ms", 1e3*qw, "ms")
	}

	srv, err := startServer(service.Config{}, r.workers)
	if err != nil {
		return err
	}
	defer srv.close()
	ctx := context.Background()
	p := fixed[:4<<10]
	roundTrip := medianPer(200, func() {
		_, err := srv.cl.Compress(ctx, p, paramsFor(bound))
		r.chk.op("client replay", err)
	})
	hs2 := medianPer(200, rq(srv.svc.Handler(), smallURL, small))
	r.setLayer("client.http_overhead_us.small", float64(roundTrip-hs2)/1e3, "us")
	// Client and server share the process, so this counts both sides.
	r.setLayer("client.allocs_per_req.small", allocsTwice(r, "client.allocs_per_req.small", 100, func() {
		_, err := srv.cl.Compress(ctx, p, paramsFor(bound))
		r.chk.op("client replay", err)
	}), "count")
	return nil
}

// telemetryOverhead times serial compression with codec telemetry on and
// off, interleaved, restoring the workload's setting.
func telemetryOverhead(r *run, v []float32, bound float64) float64 {
	was := telemetry.Enabled()
	defer func() {
		if was {
			telemetry.Enable()
		} else {
			telemetry.Disable()
		}
	}()
	dst := make([]byte, 0, 4*len(v)+(8<<10))
	var err error
	compress := func() {
		dst, err = szx.CompressInto(dst[:0], v, absOpt(bound))
		r.chk.op("telemetry replay", err)
	}
	var on, off []float64
	for range reps {
		telemetry.Enable()
		on = append(on, float64(timed(compress)))
		telemetry.Disable()
		off = append(off, float64(timed(compress)))
	}
	return 100 * (median(on)/median(off) - 1)
}

// ladderRungs runs the fixed input down every rung and reports each rung's
// throughput and the loss between adjacent rungs.
func ladderRungs(r *run, fixed []float32, bound float64) error {
	n := int64(4 * len(fixed))
	opt := absOpt(bound)
	r.setLayer("telemetry.codec_overhead_pct", telemetryOverhead(r, fixed, bound), "%")

	all, nc := planBlocks([][]float32{fixed}, []float64{bound}, kernels.K32.Stats, kernels.K32.EncodeScan)
	st, en, _, _, _ := kernelTimes(all, nc, kernels.K32.Stats, kernels.K32.EncodeScan, kernels.K32.DecodeScan)
	dst := make([]byte, 0, 4*len(fixed)+(8<<10))
	var err error
	core := timed(func() {
		dst, err = szx.CompressInto(dst[:0], fixed, opt)
		r.chk.op("ladder: core", err)
	})
	par := timed(func() {
		dst, err = szx.CompressParallelInto(dst[:0], fixed, opt, r.workers)
		r.chk.op("ladder: parallel", err)
	})
	pipe := timed(func() {
		var buf bytes.Buffer
		pw := szx.NewPipeWriter(&buf, opt, 0, r.workers)
		err := pw.Write(fixed)
		if cerr := pw.Close(); err == nil {
			err = cerr
		}
		r.chk.op("ladder: pipeline", err)
	})
	srv, err := startServer(service.Config{}, r.workers)
	if err != nil {
		return err
	}
	defer srv.close()
	body := byteView(fixed)
	url := "/v1/compress?t=f32&workers=-1&e=" + strconv.FormatFloat(bound, 'g', -1, 64)
	p := paramsFor(bound)
	p.Workers = -1
	// The last two rungs share a server and alternate, so that a slow
	// stretch of the host lands on both; one 8 MiB call swings by 2x on its
	// own, hence more samples than the other rungs.
	var svcs, cls []float64
	for range 3 * reps {
		t0 := time.Now()
		replay(r, srv.svc.Handler(), url, body)
		svcs = append(svcs, float64(time.Since(t0)))
		t0 = time.Now()
		_, err := srv.cl.Compress(context.Background(), fixed, p)
		cls = append(cls, float64(time.Since(t0)))
		r.chk.op("ladder: client", err)
	}
	svc, cl := time.Duration(median(svcs)), time.Duration(median(cls))
	rungs := []struct {
		name string
		d    time.Duration
	}{{"kernels", st + en}, {"core", core}, {"parallel", par}, {"pipeline", pipe}, {"service", svc}, {"client", cl}}
	for i, g := range rungs {
		r.setLayer("ladder.mb_s."+g.name, mbs(n, g.d), "MB/s")
		if i > 0 {
			prev := rungs[i-1]
			r.setLayer("ladder.loss_pct."+prev.name+"-"+g.name, 100*(1-float64(prev.d)/float64(g.d)), "%")
		}
	}
	return nil
}
