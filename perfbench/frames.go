package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	szx "repro"
)

// The frames workload is a time-stepped run's in-situ output cut into small
// frames: every field is sliced into 4-64 KiB pieces that go through every
// container and are read back — an SZXS stream through PipeWriter and
// PipeReader at nproc parallelism, an SZXT temporal stream of the field's
// planes (one plane per time step), a pipelined archive of the pieces
// written with Options.TargetRatio, and CompressBatch/DecompressBatch over
// groups of 16-64 pieces. Every array sits below ParallelMinBytes and the
// whole working set fits in the last-level cache, so per-frame bookkeeping
// is a large share of the time.

var framesApps = []appScale{{"miranda", 4}, {"nyx", 8}}

const (
	pipeChunk   = 4096 // SZXS chunk, values (16 KiB)
	targetRatio = 10   // archive fixed-ratio target
	pieceMin    = 1 << 10
	pieceMax    = 16 << 10
)

type framesField struct {
	field
	pieces  []piece
	planes  [][]float32
	batches [][][]float32 // groups of consecutive pieces

	szxs, szxt  []byte   // serial Writer and reference temporal stream
	oneShot     [][]byte // CompressInto of each piece under the bound
	archiveTail []byte   // CompressInto of each piece at the target ratio, in TOC order
}

func absOpt(bound float64) szx.Options { return szx.Options{ErrorBound: bound} }

var ratioOpt = szx.Options{TargetRatio: targetRatio}

func buildFrames(seed int64) ([]*framesField, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*framesField
	for _, f := range genFields(seed, framesApps...) {
		ff := &framesField{field: f}
		ff.pieces = cut(rng, []field{f}, pieceMin, pieceMax)
		plane := f.dims[len(f.dims)-1] * f.dims[len(f.dims)-2]
		for off := 0; off+plane <= len(f.data); off += plane {
			ff.planes = append(ff.planes, f.data[off:off+plane])
		}
		for i := 0; i < len(ff.pieces); {
			n := min(16+rng.Intn(49), len(ff.pieces)-i)
			var g [][]float32
			for _, p := range ff.pieces[i : i+n] {
				g = append(g, p.data)
			}
			ff.batches = append(ff.batches, g)
			i += n
		}
		var buf bytes.Buffer
		w := szx.NewWriter(&buf, absOpt(f.bound), pipeChunk)
		for _, p := range ff.pieces {
			if err := w.Write(p.data); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		ff.szxs = buf.Bytes()
		var tb bytes.Buffer
		tw, err := szx.NewTimeStreamWriter(&tb, absOpt(f.bound))
		if err != nil {
			return nil, err
		}
		for _, pl := range ff.planes {
			if err := tw.WriteFrame(pl); err != nil {
				return nil, err
			}
		}
		if err := tw.Close(); err != nil {
			return nil, err
		}
		ff.szxt = tb.Bytes()
		for _, p := range ff.pieces {
			a, err := szx.CompressInto(nil, p.data, absOpt(f.bound))
			if err != nil {
				return nil, err
			}
			b, err := szx.CompressInto(nil, p.data, ratioOpt)
			if err != nil {
				return nil, err
			}
			ff.oneShot = append(ff.oneShot, a)
			ff.archiveTail = append(ff.archiveTail, b...)
		}
		out = append(out, ff)
	}
	return out, nil
}

// framesRound is one pass of every field through every container.
type framesRound struct {
	inBytes, outBytes int64
	write, read       time.Duration
	ops               []float64 // hand-off latency per frame, ms
	counts            map[string]int64
}

// handOff times one call that hands a frame to a container.
func (rd *framesRound) handOff(parent ref, name string, fn func() error) (err error) {
	t0 := time.Now()
	parent.call(name, func() { err = fn() })
	rd.ops = append(rd.ops, ms(time.Since(t0)))
	return err
}

func (rd *framesRound) phase(write bool, t0 time.Time) {
	if write {
		rd.write += time.Since(t0)
	} else {
		rd.read += time.Since(t0)
	}
}

func framesPass(r *run, fields []*framesField, sp *spans) framesRound {
	rd := framesRound{counts: map[string]int64{}}
	for _, ff := range fields {
		framesPipe(r, ff, sp, &rd)
		framesTime(r, ff, sp, &rd)
		framesArchive(r, ff, sp, &rd)
		framesBatch(r, ff, sp, &rd)
		// Pieces go through SZXS, the archive and batches; planes through SZXT.
		rd.inBytes += 3*4*int64(len(ff.data)) + 4*int64(len(ff.planes)*len(ff.planes[0]))
	}
	return rd
}

func framesPipe(r *run, ff *framesField, sp *spans, rd *framesRound) {
	root := sp.root("frames.szxs")
	defer root.end(ref{})
	r.chk.attempt(2)
	var buf bytes.Buffer
	t0 := time.Now()
	pw := szx.NewPipeWriter(&buf, absOpt(ff.bound), pipeChunk, r.workers)
	var err error
	for _, p := range ff.pieces {
		if err = rd.handOff(root, "pipeline.Write", func() error { return pw.Write(p.data) }); err != nil {
			break
		}
	}
	var cerr error
	root.call("pipeline.Close", func() { cerr = pw.Close() })
	if err == nil {
		err = cerr
	}
	rd.phase(true, t0)
	if r.chk.err("SZXS write "+ff.name, err) {
		return
	}
	r.chk.sameBytes("SZXS stream of "+ff.name, buf.Bytes(), ff.szxs)
	rd.outBytes += int64(buf.Len())
	rd.counts["szxs.frames"] += int64(len(ff.pieces))
	rd.counts["szxs.bytes"] += int64(buf.Len())
	t0 = time.Now()
	pr := szx.NewPipeReader(bytes.NewReader(buf.Bytes()), r.workers)
	var got []float32
	root.call("pipeline.ReadAll", func() { got, err = pr.ReadAll() })
	pr.Close()
	rd.phase(false, t0)
	if !r.chk.err("SZXS read "+ff.name, err) {
		withinBound(r.chk, "SZXS restored "+ff.name, ff.data, got, ff.bound)
	}
}

func framesTime(r *run, ff *framesField, sp *spans, rd *framesRound) {
	root := sp.root("frames.szxt")
	defer root.end(ref{})
	r.chk.attempt(2)
	var buf bytes.Buffer
	t0 := time.Now()
	tw, err := szx.NewTimeStreamWriter(&buf, absOpt(ff.bound))
	if r.chk.err("SZXT open "+ff.name, err) {
		return
	}
	for _, pl := range ff.planes {
		if err = rd.handOff(root, "timestream.WriteFrame", func() error { return tw.WriteFrame(pl) }); err != nil {
			break
		}
	}
	var cerr error
	root.call("timestream.Close", func() { cerr = tw.Close() })
	if err == nil {
		err = cerr
	}
	rd.phase(true, t0)
	if r.chk.err("SZXT write "+ff.name, err) {
		return
	}
	r.chk.sameBytes("SZXT stream of "+ff.name, buf.Bytes(), ff.szxt)
	rd.outBytes += int64(buf.Len())
	rd.counts["szxt.frames"] += int64(len(ff.planes))
	rd.counts["szxt.bytes"] += int64(buf.Len())
	t0 = time.Now()
	tr := szx.NewTimeStreamReader(bytes.NewReader(buf.Bytes()))
	var restored [][]float32
	for {
		var fr []float32
		root.call("timestream.ReadFrame", func() { fr, err = tr.ReadFrame() })
		if errors.Is(err, io.EOF) {
			break
		}
		if r.chk.err("SZXT read "+ff.name, err) {
			break
		}
		restored = append(restored, fr)
	}
	tr.Close()
	rd.phase(false, t0)
	if len(restored) != len(ff.planes) {
		r.chk.fail("SZXT %s: restored %d frames, want %d", ff.name, len(restored), len(ff.planes))
		return
	}
	for i, pl := range ff.planes {
		if !withinBound(r.chk, fmt.Sprintf("SZXT frame %d of %s", i, ff.name), pl, restored[i], ff.bound) {
			break
		}
	}
}

func framesArchive(r *run, ff *framesField, sp *spans, rd *framesRound) {
	root := sp.root("frames.archive")
	defer root.end(ref{})
	r.chk.attempt(2)
	t0 := time.Now()
	aw := szx.NewPipelinedArchiveWriter(ratioOpt, r.workers)
	var err error
	for i, p := range ff.pieces {
		name := fmt.Sprintf("p%05d", i)
		if err = rd.handOff(root, "archive.AddField", func() error { return aw.AddField(name, []int{len(p.data)}, p.data) }); err != nil {
			break
		}
	}
	var blob []byte
	root.call("archive.Bytes", func() { blob = aw.Bytes() })
	rd.phase(true, t0)
	if r.chk.err("archive write "+ff.name, err) || r.chk.err("archive flush "+ff.name, aw.Err()) {
		return
	}
	if !bytes.HasSuffix(blob, ff.archiveTail) {
		r.chk.sameBytes("archive payloads of "+ff.name, blob[max(0, len(blob)-len(ff.archiveTail)):], ff.archiveTail)
	}
	rd.outBytes += int64(len(blob))
	rd.counts["archive.fields"] += int64(len(ff.pieces))
	rd.counts["archive.bytes"] += int64(len(blob))
	t0 = time.Now()
	a, err := szx.OpenArchive(blob)
	if r.chk.err("archive open "+ff.name, err) {
		return
	}
	infos := a.Fields()
	for i, p := range ff.pieces {
		var got []float32
		root.call("archive.Read", func() { got, _, err = a.Read(infos[i].Name) })
		if r.chk.err("archive read "+ff.name, err) {
			break
		}
		if !withinBound(r.chk, "archive field "+infos[i].Name+" of "+ff.name, p.data, got, infos[i].ErrBound) {
			break
		}
	}
	rd.phase(false, t0)
}

func framesBatch(r *run, ff *framesField, sp *spans, rd *framesRound) {
	root := sp.root("frames.batch")
	defer root.end(ref{})
	r.chk.attempt(2 * len(ff.batches))
	opt := absOpt(ff.bound)
	opt.Workers = r.workers
	var outs [][]byte
	var errs []error
	var vals [][]float32
	var verrs []error
	k := 0
	for _, g := range ff.batches {
		t0 := time.Now()
		// A batch call hands off 16-64 frames at once; it is not one frame's
		// hand-off, so it stays out of the latency samples (its ~1% share
		// would otherwise straddle the p99).
		root.call("batch.CompressBatch", func() { outs, errs = szx.CompressBatch(outs, errs, g, opt) })
		rd.phase(true, t0)
		bad := false
		for i := range g {
			if r.chk.err("batch compress "+ff.name, errs[i]) || !r.chk.sameBytes("batch item of "+ff.name, outs[i], ff.oneShot[k+i]) {
				bad = true
				break
			}
			rd.outBytes += int64(len(outs[i]))
			rd.counts["batch.bytes"] += int64(len(outs[i]))
		}
		rd.counts["batch.arrays"] += int64(len(g))
		if bad {
			k += len(g)
			continue
		}
		t0 = time.Now()
		root.call("batch.DecompressBatch", func() { vals, verrs = szx.DecompressBatch(vals, verrs, outs, r.workers) })
		rd.phase(false, t0)
		for i := range g {
			if r.chk.err("batch restore "+ff.name, verrs[i]) || !withinBound(r.chk, "batch restored "+ff.name, g[i], vals[i], ff.bound) {
				break
			}
		}
		k += len(g)
	}
}

func framesRounds(r *run, fields []*framesField, sp *spans, until time.Time) []framesRound {
	var rounds []framesRound
	for len(rounds) < 2 || time.Now().Before(until) {
		rd := framesPass(r, fields, sp)
		rounds = append(rounds, rd)
		for k, v := range rd.counts {
			r.repeat("frames."+k, v)
		}
	}
	return rounds
}

func summarizeFrames(rounds []framesRound) (cmb, dmb, ratio, opsPerS float64, lat [][]float64) {
	var cs, ds, rs []float64
	var in, out int64
	for _, rd := range rounds {
		cs = append(cs, mbs(rd.inBytes, rd.write))
		ds = append(ds, mbs(rd.inBytes, rd.read))
		rs = append(rs, float64(len(rd.ops))/rd.write.Seconds())
		in += rd.inBytes
		out += rd.outBytes
		lat = append(lat, rd.ops)
	}
	return median(cs), median(ds), float64(in) / float64(out), median(rs), lat
}

func runFrames(r *run) error {
	var fields []*framesField
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var err error
		if fields, err = buildFrames(r.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	pieces, planes := 0, 0
	for _, ff := range fields {
		r.distinctBytes += int64(4 * len(ff.data))
		pieces += len(ff.pieces)
		planes += len(ff.planes)
	}
	r.totalBytes = r.distinctBytes
	info("frames: %d fields, %d pieces, %d planes, %.1f MiB, workers %d", len(fields), pieces, planes, float64(r.distinctBytes)/(1<<20), r.workers)

	if r.traced {
		plain := framesRounds(r, fields, nil, r.deadline(0.25))
		traced := framesRounds(r, fields, r.sp, r.deadline(0.25))
		c0, _, _, _, lat := summarizeFrames(plain)
		c1, _, _, _, _ := summarizeFrames(traced)
		setLatency(r, "frames hand-off (one frame), windows are passes", lat)
		r.setLayer("bench.trace_overhead_pct", 100*(c0/c1-1), "%")
		r.setLayer("bench.self_pct", 100*r.sp.selfShare(), "%")
		in := ladderInputs{opt: absOpt, planOpt: ratioOpt}
		for _, ff := range fields {
			in.a32 = append(in.a32, ff.pieces...)
		}
		return runLadder(r, in)
	}

	framesRounds(r, fields, nil, r.deadline(0.1)) // warm-up, not reported
	rounds := framesRounds(r, fields, nil, r.deadline(0.9))
	cmb, dmb, ratio, opsPerS, lat := summarizeFrames(rounds)
	setLatency(r, "frames hand-off (one frame), windows are passes", lat)
	r.setE2E("compress_mb_s", cmb, "MB/s")
	r.setE2E("decompress_mb_s", dmb, "MB/s")
	r.setE2E("ratio", ratio, "x")
	r.setE2E("max_rps", opsPerS, "1/s")
	r.setE2E("setup_s", median(setups), "s")
	info("frames: %d rounds, compress MB/s by round %s", len(rounds), roundList(rounds, func(rd framesRound) float64 { return mbs(rd.inBytes, rd.write) }))
	return nil
}
