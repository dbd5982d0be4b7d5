package szx

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/telemetry"
	"repro/telemetry/trace"
)

// Ordered frame engine: the one loop under both streaming containers
// (SZXS here, SZXT in timestream.go). Frames are staged — compressed or
// decoded — independently and leave the engine strictly in stream order;
// the first error anywhere (staging, I/O, a malformed frame) is pinned and
// returned from every later call.
//
// Inline mode (one worker): the caller's goroutine stages each frame and
// does the I/O itself. No goroutines, channels or ring slots are used,
// and there is no compute/I/O overlap; callers that want overlap pass
// parallelism ≥ 2.
//
// Ring mode: a bounded ring of slots circulates between a producer, an
// optional pool of stage workers, and a single in-order consumer. On the
// write side the producer is the caller and the consumer an emitter
// goroutine; on the read side the producer is a prefetcher goroutine and
// the consumer the caller. With workers the stage runs on them; without
// (SZXT, whose temporal transform is inherently sequential) it runs in
// frame order on the caller's side and the ring only overlaps the I/O.
//
// Ordering invariant: slots enter the order queue in stream order, and
// the consumer waits on each slot's done signal before touching the next,
// so frames hit the wire — and values reach the caller — in order no
// matter which worker finishes first.
//
// Backpressure invariant: the producer blocks while every slot is in
// flight, so memory is bounded by depth × (chunk + frame) on both sides;
// slots are recycled through a free list, so the steady state allocates
// nothing. Each queue holds depth slots, so no send into one ever blocks,
// and shutdown only has to wait for the goroutines, never drain a queue.

// errStreamAborted is pinned as the terminal error by PipeWriter.Abort.
var errStreamAborted = errors.New("szx: stream aborted")

// pipeSlot is one ring entry carrying a frame through the engine.
type pipeSlot struct {
	seq   int       // frame index in stream order
	off   int64     // container offset of the frame's length prefix (read side)
	t0    time.Time // when the frame entered the engine, for pipe_frame trace spans
	vals  []float32 // chunk values (input on write, output on read)
	frame []byte    // staged frame bytes (output on write, input on read)
	err   error     // staging failure; on the read side also the EOF or container error that ends the stream
	done  chan struct{}
}

// pipeErr pins the first error observed anywhere in a pipeline.
type pipeErr struct {
	mu  sync.Mutex
	err error
}

func (p *pipeErr) set(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *pipeErr) get() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// ringShape maps a parallelism (≤0 = GOMAXPROCS) to a ring depth and
// worker count. One worker is inline mode: no ring at all. Otherwise one
// slot per worker keeps the pool busy, and two extra keep the producer and
// consumer from starving it at hand-off points.
func ringShape(parallelism int) (depth, workers int) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism == 1 {
		return 0, 0
	}
	return parallelism + 2, parallelism
}

// ring is the bounded slot ring of ring mode.
type ring struct {
	free  chan *pipeSlot // idle slots; the producer blocks here when all are in flight
	work  chan *pipeSlot // slots awaiting a stage worker; nil without workers
	order chan *pipeSlot // slots in stream order, for the single consumer
	wg    sync.WaitGroup // stage workers plus the owner's emitter or prefetcher
}

func newRing(depth, workers int, stage func(*pipeSlot)) *ring {
	r := &ring{free: make(chan *pipeSlot, depth), order: make(chan *pipeSlot, depth)}
	for i := 0; i < depth; i++ {
		r.free <- &pipeSlot{}
	}
	if workers > 0 {
		r.work = make(chan *pipeSlot, depth)
		for i := 0; i < workers; i++ {
			r.spawn(func() {
				for s := range r.work {
					stage(s)
					close(s.done)
				}
			})
		}
	}
	if telemetry.Enabled() {
		telemetry.PipelineStarts.Inc()
		telemetry.PipelineDepths.Observe(int64(depth))
	}
	return r
}

// async reports whether stages run on ring workers. Without workers — or
// without a ring (inline mode) — the stage runs in frame order on the
// caller's side.
func (r *ring) async() bool { return r != nil && r.work != nil }

func (r *ring) spawn(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// acquire takes a free slot, blocking while every slot is in flight (the
// backpressure bound); it returns nil if stop or cancel fires first.
func (r *ring) acquire(stop, cancel <-chan struct{}) *pipeSlot {
	obs := telemetry.Enabled()
	var t telemetry.Timer
	if obs {
		t = telemetry.Start()
	}
	select {
	case s := <-r.free:
		if obs {
			t.Stop(&telemetry.PipelineProducerStalls)
			telemetry.PipelineFramesInFlight.Observe(int64(cap(r.free) - len(r.free)))
		}
		return s
	case <-stop:
	case <-cancel:
	}
	return nil
}

// push hands a filled slot to the workers, if any, and to the consumer.
func (r *ring) push(s *pipeSlot) {
	s.done = make(chan struct{})
	r.order <- s
	if r.work != nil {
		r.work <- s
	} else {
		close(s.done)
	}
}

// finish tells the workers and the consumer that no more slots come; the
// producer calls it once, after its last push.
func (r *ring) finish() {
	if r.work != nil {
		close(r.work)
	}
	close(r.order)
}

// pop returns the next slot in stream order once its stage is done; ok is
// false after finish or if cancel fires first. Every pushed slot's done
// signal is closed by a worker or by push itself, so the done wait needs
// no cancellation case of its own.
func (r *ring) pop(cancel <-chan struct{}) (s *pipeSlot, ok bool) {
	obs := telemetry.Enabled()
	var t telemetry.Timer
	if obs {
		t = telemetry.Start()
	}
	select {
	case s, ok = <-r.order:
		if ok {
			<-s.done
		}
	case <-cancel:
	}
	if obs {
		t.Stop(&telemetry.PipelineConsumerStalls)
	}
	return s, ok
}

// frameSink is the write half of the engine: frames submitted in stream
// order reach w in that order, each as exactly one Write.
type frameSink struct {
	w      io.Writer
	f      *frameFormat
	ctx    context.Context
	tr     *trace.Trace            // request trace from ctx; nil = untraced
	build  func(s *pipeSlot) error // stages s.frame (for frame s.seq) from s.vals
	ring   *ring                   // nil in inline mode
	inl    pipeSlot                // inline mode's only frame
	n      int                     // frames submitted
	perr   pipeErr
	closed bool
}

// init configures the sink; depth 0 selects inline mode.
func (fs *frameSink) init(ctx context.Context, w io.Writer, f *frameFormat, build func(*pipeSlot) error, depth, workers int) {
	fs.w, fs.f, fs.ctx, fs.tr, fs.build = w, f, ctx, trace.FromContext(ctx), build
	if depth > 0 {
		fs.ring = newRing(depth, workers, fs.stage)
		fs.ring.spawn(fs.emitter)
	}
}

func (fs *frameSink) stage(s *pipeSlot) { s.err = fs.build(s) }

func (fs *frameSink) emitter() {
	for {
		s, ok := fs.ring.pop(nil)
		if !ok {
			return
		}
		fs.emit(s)
		fs.ring.free <- s
	}
}

// emit writes one staged frame, or pins its failure. After the first
// error frames are dropped, so the container stays a readable prefix.
func (fs *frameSink) emit(s *pipeSlot) {
	switch {
	case s.err != nil:
		fs.perr.set(s.err)
	case fs.perr.get() == nil:
		if _, err := fs.w.Write(s.frame); err != nil {
			fs.perr.set(err)
		} else if telemetry.Enabled() {
			telemetry.StreamFramesWritten.Inc()
		}
	}
	if fs.tr != nil {
		fs.tr.RecordSpan("pipe_frame", s.t0, time.Now())
	}
}

// err pins ctx's error once it is cancelled and returns the pinned error.
func (fs *frameSink) err() error {
	if err := fs.ctx.Err(); err != nil {
		fs.perr.set(err)
	}
	return fs.perr.get()
}

// writable returns the error a write call must report up front.
func (fs *frameSink) writable() error {
	if err := fs.err(); err != nil {
		return err
	}
	if fs.closed {
		return errors.New("szx: write after Close")
	}
	return nil
}

// submit stages vals as the next frame and hands it on in stream order,
// blocking while the ring is full; a context cancellation wakes it, pins
// the error, and drops the frame. Ring workers stage a copy, since the
// caller may reuse vals once submit returns; otherwise the stage runs
// here, reading vals in place, and its error is pinned before submit
// returns.
func (fs *frameSink) submit(vals []float32) {
	s := &fs.inl
	if fs.ring != nil {
		if s = fs.ring.acquire(nil, fs.ctx.Done()); s == nil {
			fs.perr.set(fs.ctx.Err())
			return
		}
	}
	s.seq, s.err = fs.n, nil
	fs.n++
	if fs.tr != nil {
		s.t0 = time.Now()
	}
	if fs.ring.async() {
		s.vals = append(s.vals[:0], vals...)
		fs.ring.push(s)
		return
	}
	s.vals = vals
	fs.stage(s)
	s.vals = nil
	if s.err != nil {
		fs.perr.set(s.err)
	}
	if fs.ring == nil {
		fs.emit(s)
	} else {
		fs.ring.push(s)
	}
}

// shutdown stops accepting frames and joins the emitter and workers once
// they have drained what is in flight.
func (fs *frameSink) shutdown() {
	fs.closed = true
	if fs.ring != nil {
		fs.ring.finish()
		fs.ring.wg.Wait()
	}
}

// close shuts down and, if the stream is healthy, writes the terminator.
// A second close returns the pinned error.
func (fs *frameSink) close() error {
	if fs.closed {
		return fs.perr.get()
	}
	fs.shutdown()
	if err := fs.err(); err != nil {
		return err
	}
	if _, err := fs.w.Write(fs.f.appendEnd(fs.inl.frame[:0], fs.n == 0)); err != nil {
		fs.perr.set(err)
		return err
	}
	return nil
}

// frameSource is the read half of the engine: frames leave in container
// order, decoded.
type frameSource struct {
	fr     frameReader
	ctx    context.Context
	tr     *trace.Trace            // request trace from ctx; nil = untraced
	decode func(s *pipeSlot) error // fills s.vals from s.frame
	ring   *ring                   // nil in inline mode
	stop   chan struct{}           // closed by close to stop the prefetcher
	inl    pipeSlot                // inline mode's only frame
	cur    *pipeSlot               // slot returned by the last next
	err    error                   // pinned terminal error (io.EOF at the terminator)
	closed bool
}

// init configures the source; depth 0 selects inline mode.
func (src *frameSource) init(ctx context.Context, r io.Reader, f *frameFormat, decode func(*pipeSlot) error, depth, workers int) {
	src.fr = frameReader{r: r, f: f}
	src.ctx, src.tr, src.decode = ctx, trace.FromContext(ctx), decode
	if depth > 0 {
		src.ring = newRing(depth, workers, src.stage)
		src.stop = make(chan struct{})
		src.ring.spawn(src.prefetch)
	}
}

// stage decodes a slot in place, wrapping a failure with the frame's
// position; slots that already carry an error pass through.
func (src *frameSource) stage(s *pipeSlot) {
	if s.err == nil {
		if err := src.decode(s); err != nil {
			s.err = src.fr.f.frameErr(s.seq, s.off, err)
		}
	}
}

func (src *frameSource) read(s *pipeSlot) {
	if src.tr != nil {
		s.t0 = time.Now()
	}
	s.frame, s.seq, s.off, s.err = src.fr.next(s.frame[:0])
}

// prefetch reads frames ahead into ring slots. The terminator or a
// container failure travels as a final slot, so the consumer sees it in
// order; only stop or a cancelled context end the loop without one.
func (src *frameSource) prefetch() {
	defer src.ring.finish()
	for {
		s := src.ring.acquire(src.stop, src.ctx.Done())
		if s == nil {
			return
		}
		src.read(s)
		last := s.err != nil // s belongs to the consumer once pushed
		src.ring.push(s)
		if last {
			return
		}
	}
}

// next returns the next decoded frame in stream order, recycling the one
// returned before. Its error is pinned: once next fails it fails the same
// way forever. Container failures are counted here, where they surface.
func (src *frameSource) next() (*pipeSlot, error) {
	if src.err != nil {
		return nil, src.err
	}
	if err := src.ctx.Err(); err != nil {
		src.err = err
		return nil, err
	}
	if s := src.cur; s != nil {
		if src.tr != nil {
			src.tr.RecordSpan("pipe_frame", s.t0, time.Now())
		}
		if src.ring != nil {
			src.ring.free <- s
		}
		src.cur = nil
	}
	s := &src.inl
	if src.ring == nil {
		src.read(s)
	} else {
		var ok bool
		if s, ok = src.ring.pop(src.ctx.Done()); !ok {
			// Only a cancelled context stops the prefetcher before the
			// consumer has seen a final slot.
			src.err = src.ctx.Err()
			return nil, src.err
		}
	}
	if !src.ring.async() {
		src.stage(s)
	}
	if s.err != nil {
		if s.err != io.EOF {
			telemetry.StreamFrameErrors.Inc()
		}
		src.err = s.err
		return nil, s.err
	}
	src.cur = s
	if telemetry.Enabled() {
		telemetry.StreamFramesRead.Inc()
	}
	return s, nil
}

// close stops the prefetcher and joins every goroutine; later reads fail.
func (src *frameSource) close() {
	if src.closed {
		return
	}
	src.closed = true
	if src.ring != nil {
		close(src.stop)
		src.ring.wg.Wait()
	}
	if src.err == nil {
		src.err = errors.New("szx: read after Close")
	}
}

// PipeWriter compresses a stream of float32 values chunk by chunk into an
// SZXS container. With one worker it compresses and writes each chunk on
// the caller's goroutine; with more, a pool of workers compresses chunks
// concurrently while a single emitter goroutine writes the frames strictly
// in order. The bytes do not depend on the parallelism.
//
// A PipeWriter is not safe for concurrent use; any concurrency is
// internal. Close must be called to flush the tail chunk, write the
// terminator, and join the goroutines.
type PipeWriter struct {
	out   frameSink
	opt   Options
	chunk int
	buf   []float32
	ratio streamRatio // seeded on the producer goroutine before chunk 0 is staged
}

// NewPipeWriter returns a streaming compressor writing to w. ChunkValues
// controls the chunk granularity (0 = DefaultChunkValues) and parallelism
// the number of concurrent chunk compressions (≤0 = GOMAXPROCS). One
// worker starts no goroutines and overlaps nothing; more keep
// parallelism+2 frames in flight, bounding memory at roughly
// (parallelism+2) × chunk values plus their compressed frames. Each chunk
// is compressed with the serial per-chunk engine — the pipeline itself is
// the parallelism — so opt.Workers is ignored.
func NewPipeWriter(w io.Writer, opt Options, chunkValues, parallelism int) *PipeWriter {
	return NewPipeWriterContext(context.Background(), w, opt, chunkValues, parallelism)
}

// NewPipeWriterContext is NewPipeWriter bound to a context: once ctx is
// cancelled, in-flight and subsequent Write calls return ctx's error
// instead of blocking on the pipeline (a producer stalled waiting for a
// free ring slot wakes immediately), and Close skips the tail flush and
// terminator, reporting the cancellation. This is what lets a server
// thread an HTTP request context through the pipeline so an abandoned
// request cannot strand its handler. Close must still be called to join
// the goroutines; cancellation only guarantees the calls unblock promptly.
// A write to w itself can stay blocked until the sink unblocks — hand the
// pipeline a sink that fails on cancellation (HTTP response writers do).
func NewPipeWriterContext(ctx context.Context, w io.Writer, opt Options, chunkValues, parallelism int) *PipeWriter {
	if chunkValues <= 0 {
		chunkValues = DefaultChunkValues
	}
	pw := &PipeWriter{opt: opt, chunk: chunkValues}
	pw.opt.Workers = WorkersSerial
	// Per-chunk encodes may run on pool workers; letting each record
	// codec-stage spans would flood the trace with overlapping intervals.
	// The engine's trace story is one pipe_frame span per frame.
	pw.opt.Spans = nil
	depth, workers := ringShape(parallelism)
	pw.out.init(ctx, w, streamFormat, pw.build, depth, workers)
	return pw
}

// build stages frame s.seq from s.vals. It is a pure function of (options,
// ratio seed, frame index, values), so it can run on any worker and the
// bytes do not depend on scheduling. Chunk 0 uses the seed verbatim;
// later chunks re-resolve from it.
func (pw *PipeWriter) build(s *pipeSlot) error {
	opt := pw.opt
	if opt.TargetRatio > 0 {
		b := pw.ratio.seed
		if s.seq > 0 {
			var err error
			if b, err = ratioChunkBound(pw.opt, pw.ratio.seed, s.vals); err != nil {
				return err
			}
		}
		opt = pw.opt.withBound(b)
	}
	frame, at := streamFormat.openFrame(s.frame[:0], s.seq == 0)
	frame, err := CompressInto(frame, s.vals, opt)
	if err != nil {
		return err
	}
	s.frame = closeFrame(frame, at)
	return nil
}

// submit hands one chunk to the engine.
func (pw *PipeWriter) submit(chunk []float32) {
	if pw.opt.TargetRatio > 0 && !pw.ratio.seeded {
		// Run the full bound search on the first chunk here, on the
		// producer goroutine, so every worker sees the seed through the
		// slot hand-off.
		if _, err := pw.ratio.chunkBound(chunk, pw.opt); err != nil {
			pw.out.perr.set(err)
			return
		}
	}
	pw.out.submit(chunk)
}

// Write buffers values, submitting full chunks; large inputs are chunked
// directly from the caller's slice without re-buffering. Errors from
// in-flight chunks surface on a later Write or on Close (first error
// wins); with one worker they surface on the Write that hit them.
func (pw *PipeWriter) Write(values []float32) error {
	if err := pw.out.writable(); err != nil {
		return err
	}
	for len(values) > 0 {
		if len(pw.buf) == 0 && len(values) >= pw.chunk {
			pw.submit(values[:pw.chunk])
			values = values[pw.chunk:]
		} else {
			need := min(pw.chunk-len(pw.buf), len(values))
			pw.buf = append(pw.buf, values[:need]...)
			values = values[need:]
			if len(pw.buf) == pw.chunk {
				pw.submit(pw.buf)
				pw.buf = pw.buf[:0]
			}
		}
		if err := pw.out.err(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the buffered tail chunk, drains the pipeline, writes the
// terminator, and joins every goroutine. It returns the first error the
// stream hit, if any; a second Close is a no-op returning that same error
// state.
func (pw *PipeWriter) Close() error {
	if !pw.out.closed && len(pw.buf) > 0 && pw.out.err() == nil {
		pw.submit(pw.buf)
		pw.buf = pw.buf[:0]
	}
	return pw.out.close()
}

// Abort stops the pipeline without flushing the tail chunk or writing the
// terminator, leaving a truncated (but prefix-readable) container. It
// joins every goroutine; subsequent Write and Close calls report the
// abort. Already-submitted frames may or may not reach the writer.
func (pw *PipeWriter) Abort() {
	if pw.out.closed {
		return
	}
	pw.out.perr.set(errStreamAborted)
	pw.out.shutdown()
}

// PipeReader decompresses an SZXS container. With one worker it reads and
// decodes each frame on the caller's goroutine; with more, a prefetcher
// goroutine reads frames ahead while a pool of workers decodes them
// concurrently, and Read delivers values strictly in frame order. Memory
// is bounded by the ring: at most parallelism+2 compressed frames (and
// their decoded chunks) are in flight.
//
// A PipeReader is not safe for concurrent use. Close releases the
// background goroutines; it must be called when abandoning a stream
// mid-read (after a clean EOF or a terminal error the goroutines have
// already exited, but Close remains safe and idempotent).
type PipeReader struct {
	in   frameSource
	vals []float32 // current frame's values; vals[pos:] are undelivered
	pos  int
}

// NewPipeReader returns a streaming decompressor reading from r.
// parallelism is the number of concurrent frame decodes (≤0 =
// GOMAXPROCS); one worker starts no goroutines.
func NewPipeReader(r io.Reader, parallelism int) *PipeReader {
	return NewPipeReaderContext(context.Background(), r, parallelism)
}

// NewPipeReaderContext is NewPipeReader bound to a context: once ctx is
// cancelled, Read and ReadAll return ctx's error, and the prefetcher and
// decode workers wind down on their own even if Close is never called — a
// blocked consumer wakes immediately, and the prefetcher exits at its next
// hand-off point. The one blocking point cancellation cannot interrupt is
// a read on the underlying source itself; hand the pipeline a source that
// unblocks on cancellation (HTTP request bodies do). Close remains safe
// and idempotent.
func NewPipeReaderContext(ctx context.Context, r io.Reader, parallelism int) *PipeReader {
	pr := &PipeReader{}
	depth, workers := ringShape(parallelism)
	pr.in.init(ctx, r, streamFormat, decodeChunk, depth, workers)
	return pr
}

// decodeChunk decodes an SZXS frame into the slot's reused value buffer.
func decodeChunk(s *pipeSlot) error {
	vals, err := DecompressInto(s.vals[:0], s.frame)
	if err != nil {
		return err
	}
	s.vals = vals
	return nil
}

// next advances to the next frame's values; it returns io.EOF at the
// terminator.
func (pr *PipeReader) next() error {
	s, err := pr.in.next()
	if err != nil {
		pr.vals, pr.pos = nil, 0
		return err
	}
	pr.vals, pr.pos = s.vals, 0
	return nil
}

// Read fills p with decompressed values, returning the count. It returns
// io.EOF after the final chunk is exhausted.
func (pr *PipeReader) Read(p []float32) (int, error) {
	if pr.in.err != nil {
		return 0, pr.in.err
	}
	total := 0
	for total < len(p) {
		if pr.pos == len(pr.vals) {
			if err := pr.next(); err != nil {
				if total > 0 && err == io.EOF {
					return total, nil // EOF again on the next call
				}
				return total, err
			}
		}
		n := copy(p[total:], pr.vals[pr.pos:])
		pr.pos += n
		total += n
	}
	return total, nil
}

// ReadAll decompresses the remainder of the stream. After a failure it
// returns the same error, and no values, on every later call.
func (pr *PipeReader) ReadAll() ([]float32, error) {
	if err := pr.in.err; err != nil && err != io.EOF {
		return nil, err
	}
	var out []float32
	for {
		out = append(out, pr.vals[pr.pos:]...)
		pr.pos = len(pr.vals)
		if err := pr.next(); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
	}
}

// Close abandons the stream and joins the background goroutines. It is
// idempotent and safe after EOF or an error. If the underlying reader is
// blocked in Read, Close blocks until that call returns (hand PipeReader a
// reader you can unblock, e.g. by closing the file or connection).
func (pr *PipeReader) Close() error {
	pr.in.close()
	return nil
}
