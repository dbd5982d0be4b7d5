package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"

	szx "repro"
	"repro/internal/wireconv"
	"repro/telemetry"
	"repro/telemetry/trace"
)

const contentTypeBinary = "application/octet-stream"

// parseOptions maps the query string onto szx.Options plus the element
// width. Recognized keys: t (f32|f64), e (error bound), ratio (fixed-ratio
// target, mutually exclusive with e), mode (abs|rel), block (block size),
// workers (0 serial, -1 server max, else capped at the server max).
func (s *Server) parseOptions(q url.Values) (opt szx.Options, elemSize int, err error) {
	opt = szx.Options{ErrorBound: s.cfg.DefaultErrorBound, Mode: szx.BoundAbsolute}
	elemSize = 4
	switch t := q.Get("t"); t {
	case "", "f32":
	case "f64":
		elemSize = 8
	default:
		return opt, 0, fmt.Errorf("unknown element type %q (want f32 or f64)", t)
	}
	if e := q.Get("e"); e != "" {
		v, perr := strconv.ParseFloat(e, 64)
		if perr != nil || v <= 0 {
			return opt, 0, fmt.Errorf("bad error bound %q", e)
		}
		opt.ErrorBound = v
	}
	if rt := q.Get("ratio"); rt != "" {
		v, perr := strconv.ParseFloat(rt, 64)
		if perr != nil {
			return opt, 0, fmt.Errorf("bad target ratio %q", rt)
		}
		if q.Get("e") != "" {
			return opt, 0, fmt.Errorf("ratio and e are mutually exclusive")
		}
		// Fixed-ratio mode replaces the bound entirely; the server default
		// bound must not linger or validation would see a conflict.
		opt.ErrorBound = 0
		opt.TargetRatio = v
	}
	switch m := q.Get("mode"); m {
	case "", "abs":
	case "rel":
		opt.Mode = szx.BoundRelative
	default:
		return opt, 0, fmt.Errorf("unknown bound mode %q (want abs or rel)", m)
	}
	if b := q.Get("block"); b != "" {
		v, perr := strconv.Atoi(b)
		if perr != nil {
			return opt, 0, fmt.Errorf("bad block size %q", b)
		}
		opt.BlockSize = v
	}
	if ws := q.Get("workers"); ws != "" {
		v, perr := strconv.Atoi(ws)
		if perr != nil || v < -1 {
			return opt, 0, fmt.Errorf("bad workers %q", ws)
		}
		if v == -1 || v > s.cfg.MaxWorkers {
			v = s.cfg.MaxWorkers
		}
		opt.Workers = v
	}
	return opt, elemSize, nil
}

// readRequestBody pulls the whole body through the scratch buffer,
// translating size and disconnect failures into wire responses. A nil
// slice return means the response has already been written. tr (nil-safe)
// gets the read_body span and the payload size.
func readRequestBody(w http.ResponseWriter, r *http.Request, sc *scratch, max int64, tr *trace.Trace) []byte {
	sp := tr.StartSpan("read_body")
	body, err := sc.readBody(r.Body, max)
	sp.End()
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			telemetry.ServiceBadRequests.Inc()
			tr.SetError(err.Error())
			writeError(w, http.StatusRequestEntityTooLarge,
				wireError{Code: codeTooLarge, Message: err.Error()}, 0)
			return nil
		}
		// A read error on the request body means the client went away (or
		// the connection broke) mid-upload; nobody is listening for a body.
		telemetry.ServiceCancelledRequests.Inc()
		tr.SetError("client closed request during body read")
		w.WriteHeader(statusClientClosedRequest)
		return nil
	}
	if len(body) == 0 {
		tr.SetError("empty request body")
		badRequest(w, "empty request body")
		return nil
	}
	telemetry.ServiceBytesIn.Add(int64(len(body)))
	tr.SetBytes(int64(len(body)), -1)
	return body
}

// handleCompress buffers the raw float payload, compresses it on a pooled
// codec, and returns the SZx stream.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsCompress, "compress")
	if !ok {
		return
	}
	defer rq.end()

	opt, elemSize, err := s.parseOptions(r.URL.Query())
	if err != nil {
		rq.badRequest(w, err.Error())
		return
	}
	sc := getScratch(r.ContentLength)
	defer putScratch(sc)
	body := readRequestBody(w, r, sc, s.cfg.MaxBodyBytes, rq.tr)
	if body == nil {
		return
	}
	if len(body)%elemSize != 0 {
		rq.badRequest(w, fmt.Sprintf("body length %d is not a multiple of the %d-byte element size",
			len(body), elemSize))
		return
	}
	// Small-request fast path: below the adaptive engine's own serial
	// threshold, even entering the parallel path is pure setup cost, so a
	// 16 KiB request with ?workers=-1 runs serially no matter what it asked.
	if opt.Workers != 0 && len(body) < szx.ParallelMinBytes() {
		opt.Workers = 0
	}
	if rq.tr != nil {
		// The codec reports resolve_plan and encode/gather phases itself.
		opt.Spans = rq.tr
	}

	var comp []byte
	sp := rq.tr.StartSpan("unpack_body")
	if elemSize == 4 {
		sc.f32 = bytesToF32(sc.f32, body)
		sp.End()
		sc.c32.SetOptions(opt)
		comp, err = sc.c32.Compress(sc.f32)
	} else {
		sc.f64 = bytesToF64(sc.f64, body)
		sp.End()
		sc.c64.SetOptions(opt)
		comp, err = sc.c64.Compress(sc.f64)
	}
	if err != nil {
		rq.fail(w, err)
		return
	}
	sp = rq.tr.StartSpan("write_response")
	writeBinary(w, comp)
	sp.End()
}

// handleDecompress buffers the compressed payload — a single SZx stream or
// an SZXS streaming container, auto-detected — decodes it fully in memory,
// and returns the raw floats. Decoding completes before the first response
// byte, so corrupt input always yields a clean 4xx, never a truncated 200.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsDecompress, "decompress")
	if !ok {
		return
	}
	defer rq.end()

	opt, _, err := s.parseOptions(r.URL.Query())
	if err != nil {
		rq.badRequest(w, err.Error())
		return
	}
	sc := getScratch(r.ContentLength)
	defer putScratch(sc)
	body := readRequestBody(w, r, sc, s.cfg.MaxBodyBytes, rq.tr)
	if body == nil {
		return
	}

	if isStreamContainer(body) {
		// SZXS container: decode chunk by chunk with the inline container
		// reader (no goroutines, fully deterministic) into the reused
		// value buffer.
		sp := rq.tr.StartSpan("decode")
		sr := szx.NewReader(bytes.NewReader(body))
		vals := sc.f32[:0]
		for {
			if len(vals) == cap(vals) {
				vals = append(vals, 0)[:len(vals)]
			}
			n, rerr := sr.Read(vals[len(vals):cap(vals)])
			vals = vals[:len(vals)+n]
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				sc.f32 = vals
				sp.End()
				rq.fail(w, rerr)
				return
			}
		}
		sc.f32 = vals
		sp.End()
		rq.writeF32(w, sc, vals)
		return
	}

	h, err := szx.Info(body)
	if err != nil {
		rq.fail(w, err)
		return
	}
	// The header gives the exact decoded size, so the serial shortcut keys
	// on output bytes — the same signal the adaptive engine itself uses.
	es := 4
	if h.Type == szx.TypeFloat64 {
		es = 8
	}
	if opt.Workers != 0 && es*h.N < szx.ParallelMinBytes() {
		opt.Workers = 0
	}
	sp := rq.tr.StartSpan("decode")
	if h.Type == szx.TypeFloat64 {
		sc.c64.SetOptions(opt)
		vals, derr := sc.c64.Decompress(body)
		sp.End()
		if derr != nil {
			rq.fail(w, derr)
			return
		}
		rq.writeF64(w, sc, vals)
		return
	}
	sc.c32.SetOptions(opt)
	vals, derr := sc.c32.Decompress(body)
	sp.End()
	if derr != nil {
		rq.fail(w, derr)
		return
	}
	rq.writeF32(w, sc, vals)
}

// handleStreamCompress pumps an unbounded raw float32 body through the
// pipelined engine and emits an SZXS container as it goes. Memory is the
// pipeline window regardless of body size. Because bytes stream out before
// the body finishes, a mid-stream failure can only truncate the response —
// SZXS's terminator frame lets the receiver detect that.
func (s *Server) handleStreamCompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsStreamCompress, "stream_compress")
	if !ok {
		return
	}
	defer rq.end()

	q := r.URL.Query()
	if t := q.Get("t"); t != "" && t != "f32" {
		rq.badRequest(w, "streaming endpoints carry float32 only")
		return
	}
	opt, _, err := s.parseOptions(q)
	if err != nil {
		rq.badRequest(w, err.Error())
		return
	}
	// The pipeline surfaces errors mid-stream as truncation; option errors
	// are knowable now, while a clean 400 is still possible.
	if verr := opt.Validate(); verr != nil {
		rq.fail(w, verr)
		return
	}

	chunkBytes := 4 * s.cfg.ChunkValues
	sc := getScratch(int64(chunkBytes))
	defer putScratch(sc)
	buf := sc.raw[:0]
	if cap(buf) < chunkBytes {
		buf = make([]byte, 0, chunkBytes)
	}
	buf = buf[:chunkBytes]
	defer func() { sc.raw = buf }()

	// Both streaming endpoints read the request body while writing the
	// response. Go's HTTP/1.x server is half-duplex by default — body
	// reads fail once the response starts — so opt in to full duplex
	// (no-op on HTTP/2, where streams are always bidirectional).
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", contentTypeBinary)
	cw := &countingWriter{w: w}
	// The pipeline picks the request trace out of r.Context() itself and
	// records one pipe_frame span per emitted frame.
	pw := szx.NewPipeWriterContext(r.Context(), cw, opt, s.cfg.ChunkValues, s.cfg.StreamParallelism)
	var bodyIn int64
	defer func() {
		telemetry.ServiceBytesOut.Add(cw.n)
		rq.tr.SetBytes(bodyIn, -1)
	}()

	for {
		n, rerr := io.ReadFull(r.Body, buf)
		if n > 0 {
			telemetry.ServiceBytesIn.Add(int64(n))
			bodyIn += int64(n)
			if n%4 != 0 {
				// Truncated trailing element: the upload broke mid-float.
				telemetry.ServiceBadRequests.Inc()
				rq.tr.SetError("body truncated mid-element")
				pw.Abort()
				_ = pw.Close()
				return
			}
			sc.f32 = bytesToF32(sc.f32, buf[:n])
			if werr := pw.Write(sc.f32); werr != nil {
				countStreamFailure(r, werr)
				rq.tr.SetError(werr.Error())
				pw.Abort()
				_ = pw.Close()
				return
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			telemetry.ServiceCancelledRequests.Inc()
			rq.tr.SetError("client closed request during body read")
			pw.Abort()
			_ = pw.Close()
			return
		}
	}
	if cerr := pw.Close(); cerr != nil {
		countStreamFailure(r, cerr)
		rq.tr.SetError(cerr.Error())
	}
}

// handleStreamDecompress pumps an SZXS container body through the
// pipelined reader and emits raw float32 bytes. An error before the first
// output byte yields a clean 4xx; after that the response truncates.
func (s *Server) handleStreamDecompress(w http.ResponseWriter, r *http.Request) {
	rq, w, r, ok := s.begin(w, r, &telemetry.ServiceRequestsStreamDecompress, "stream_decompress")
	if !ok {
		return
	}
	defer rq.end()

	sc := getScratch(int64(4 * s.cfg.ChunkValues))
	defer putScratch(sc)
	vals := sc.f32[:0]
	if cap(vals) < s.cfg.ChunkValues {
		vals = make([]float32, 0, s.cfg.ChunkValues)
	}
	vals = vals[:cap(vals)]
	out := sc.out[:0]
	if cap(out) < 4*len(vals) {
		out = make([]byte, 0, 4*len(vals))
	}
	out = out[:4*len(vals)]
	defer func() { sc.f32, sc.out = vals, out }()

	// See handleStreamCompress: body reads continue after response writes
	// begin, which HTTP/1.x only allows in full-duplex mode.
	_ = http.NewResponseController(w).EnableFullDuplex()

	cr := &countingReader{r: r.Body}
	// As on the compress side, the pipeline reads the request trace from
	// r.Context() and records per-frame spans.
	pr := szx.NewPipeReaderContext(r.Context(), cr, s.cfg.StreamParallelism)
	defer pr.Close()
	defer func() {
		telemetry.ServiceBytesIn.Add(cr.n)
		rq.tr.SetBytes(cr.n, -1)
	}()

	wrote := false
	for {
		n, rerr := pr.Read(vals)
		if n > 0 {
			for i, v := range vals[:n] {
				binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
			}
			if !wrote {
				w.Header().Set("Content-Type", contentTypeBinary)
				wrote = true
			}
			if _, werr := w.Write(out[:4*n]); werr != nil {
				telemetry.ServiceCancelledRequests.Inc()
				rq.tr.SetError("client closed request during response write")
				return
			}
			telemetry.ServiceBytesOut.Add(int64(4 * n))
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			if !wrote {
				rq.fail(w, rerr)
				return
			}
			// Headers are gone; the only honest signal is truncation.
			countStreamFailure(r, rerr)
			rq.tr.SetError(rerr.Error())
			return
		}
	}
}

// countStreamFailure attributes a mid-stream pipeline error: a cancelled
// request context is the client's doing, anything else is a decode/encode
// failure worth the bad-request counter.
func countStreamFailure(r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || r.Context().Err() != nil {
		telemetry.ServiceCancelledRequests.Inc()
		return
	}
	telemetry.ServiceBadRequests.Inc()
}

// isStreamContainer reports whether b starts with the SZXS container magic.
func isStreamContainer(b []byte) bool {
	return len(b) >= 4 && b[0] == 'S' && b[1] == 'Z' && b[2] == 'X' && b[3] == 'S'
}

// writeBinary sends a fully materialized binary response.
func writeBinary(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", contentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	n, _ := w.Write(b)
	telemetry.ServiceBytesOut.Add(int64(n))
}

// writeF32 stages vals as little-endian bytes in the scratch and sends
// them.
func writeF32(w http.ResponseWriter, sc *scratch, vals []float32) {
	need := 4 * len(vals)
	out := sc.out[:0]
	if cap(out) < need {
		out = make([]byte, 0, need)
	}
	out = out[:need]
	wireconv.PutF32(out, vals)
	sc.out = out
	writeBinary(w, out)
}

func writeF64(w http.ResponseWriter, sc *scratch, vals []float64) {
	need := 8 * len(vals)
	out := sc.out[:0]
	if cap(out) < need {
		out = make([]byte, 0, need)
	}
	out = out[:need]
	wireconv.PutF64(out, vals)
	sc.out = out
	writeBinary(w, out)
}

// bytesToF32 decodes little-endian float32s into dst's reused capacity.
func bytesToF32(dst []float32, b []byte) []float32 { return wireconv.F32(dst[:0], b) }

func bytesToF64(dst []float64, b []byte) []float64 { return wireconv.F64(dst[:0], b) }

// countingWriter / countingReader tally streamed bytes for the service
// byte counters without buffering anything.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
