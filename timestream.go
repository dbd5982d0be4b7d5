package szx

import (
	"context"
	"errors"
	"io"
)

// Temporal streaming: TimeCompressor frames are inherently sequential
// (each residual is computed against the previous reconstructed frame), so
// chunk-level parallelism does not apply — but the I/O still overlaps. The
// SZXT container runs on the ordered frame engine (pipeline.go) as an
// ordered stage with a two-frame ring and no workers: the temporal
// transform runs in frame order on the caller's goroutine while an
// emitter writes (or a prefetcher reads) the neighbouring frames. The
// container uses the shared framing (stream.go) with its own magic:
//
//	"SZXT" u8(version)
//	repeat: u32 frameLen | one TimeCompressor frame
//	u32(0) terminator

const (
	timeStreamMagic   = "SZXT"
	timeStreamVersion = 1
	// timeStreamAhead is the ring depth of both ends; temporal frames are
	// whole snapshots, so a small window already hides the I/O.
	timeStreamAhead = 2
)

// ErrTimeStream reports a malformed temporal streaming container.
var ErrTimeStream = errors.New("szx: malformed temporal stream container")

var timeStreamFormat = &frameFormat{timeStreamMagic, timeStreamVersion, ErrTimeStream}

// TimeStreamWriter writes a TimeCompressor frame sequence to w, compressing
// the next frame while the previous one's bytes are being written. Not safe
// for concurrent use; Close flushes, writes the terminator, and joins the
// emitter goroutine.
type TimeStreamWriter struct {
	tc  *TimeCompressor
	out frameSink
}

// NewTimeStreamWriter returns a pipelined temporal stream compressor
// writing to w. opt.Mode must be BoundAbsolute (see NewTimeCompressor).
func NewTimeStreamWriter(w io.Writer, opt Options) (*TimeStreamWriter, error) {
	tc, err := NewTimeCompressor(opt)
	if err != nil {
		return nil, err
	}
	tw := &TimeStreamWriter{tc: tc}
	tw.out.init(context.Background(), w, timeStreamFormat, tw.build, timeStreamAhead, 0)
	return tw, nil
}

// build runs the temporal transform on frame s.vals and stages the result.
func (tw *TimeStreamWriter) build(s *pipeSlot) error {
	comp, err := tw.tc.CompressFrame(s.vals)
	if err != nil {
		return err
	}
	frame, at := timeStreamFormat.openFrame(s.frame[:0], s.seq == 0)
	s.frame = closeFrame(append(frame, comp...), at)
	return nil
}

// WriteFrame compresses the next temporal frame and queues its bytes for
// emission, returning once the compression (not the write) is done. Write
// errors surface on a later call or on Close.
func (tw *TimeStreamWriter) WriteFrame(frame []float32) error {
	if err := tw.out.writable(); err != nil {
		return err
	}
	tw.out.submit(frame)
	return tw.out.err()
}

// Close drains the emitter, writes the terminator, and joins the
// goroutine. It returns the first error the stream hit.
func (tw *TimeStreamWriter) Close() error { return tw.out.close() }

// TimeStreamReader reconstructs a TimeStreamWriter sequence, prefetching
// compressed frames ahead of the (inherently sequential) temporal decoder
// so the read I/O overlaps frame reconstruction. Every failure is a
// *FrameError wrapping ErrTimeStream, except a bad container header, which
// wraps ErrTimeStream directly. Not safe for concurrent use; Close
// releases the prefetcher.
type TimeStreamReader struct {
	td *TimeDecompressor
	in frameSource
}

// NewTimeStreamReader returns a pipelined temporal stream decompressor
// reading from r.
func NewTimeStreamReader(r io.Reader) *TimeStreamReader {
	tr := &TimeStreamReader{td: NewTimeDecompressor()}
	tr.in.init(context.Background(), r, timeStreamFormat, tr.decode, timeStreamAhead, 0)
	return tr
}

// decode reconstructs frame s.frame on the consumer's goroutine, in order.
func (tr *TimeStreamReader) decode(s *pipeSlot) (err error) {
	s.vals, err = tr.td.DecompressFrame(s.frame)
	return err
}

// ReadFrame reconstructs the next temporal frame, returning io.EOF after
// the final one.
func (tr *TimeStreamReader) ReadFrame() ([]float32, error) {
	s, err := tr.in.next()
	if err != nil {
		return nil, err
	}
	return s.vals, nil
}

// Close abandons the stream and joins the prefetcher. Idempotent; safe
// after EOF or an error.
func (tr *TimeStreamReader) Close() error {
	tr.in.close()
	return nil
}
