package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// Streaming codec: an unbounded sequence of float32 values carried as
// independently compressed chunks. This is the shape the paper's online
// instrument-data use case needs (LCLS-II, §1): data arrives continuously,
// each chunk is compressed and flushed with bounded latency and memory,
// and a crashed stream is readable up to the last complete chunk.
//
// Both streaming containers share one length-prefixed layout, differing
// only in the magic and in the sentinel their errors wrap:
//
//	magic u8(version)
//	repeat: u32 frameLen | payload
//	u32(0) terminator
//
// "SZXS" frames are SZx streams of one chunk each (PipeWriter/PipeReader);
// "SZXT" frames are TimeCompressor frames (TimeStreamWriter/Reader).
//
// With Mode == BoundRelative the bound is resolved against each chunk's
// own value range (instruments rarely know the global range in advance);
// use BoundAbsolute for a range-independent guarantee.

const (
	streamMagic   = "SZXS"
	streamVersion = 1
	// DefaultChunkValues is the streaming chunk size (values).
	DefaultChunkValues = 1 << 18
)

// ErrStream reports a malformed streaming container.
var ErrStream = errors.New("szx: malformed stream container")

// FrameError reports a malformed, truncated, or undecodable frame in a
// streaming container. It carries the zero-based frame index and the byte
// offset of the frame's length prefix within the container, so corruption
// reports name the exact spot instead of a bare "unexpected EOF"; the
// underlying cause (io.ErrUnexpectedEOF, ErrCorrupt, ...) stays reachable
// through errors.Is/As, as does the container's sentinel (ErrStream, or
// ErrTimeStream for a temporal stream). Every FrameError also increments
// the telemetry stream-frame-error counter (error counters are not gated
// on telemetry being enabled — corruption is rare enough that counting it
// is free, and the count is the first thing an operator wants).
type FrameError struct {
	Frame  int   // zero-based frame index within the stream
	Offset int64 // byte offset of the frame's length prefix in the container
	Err    error // underlying cause

	kind error // container sentinel; nil means ErrStream
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("szx: stream frame %d (container offset %d): %v", e.Frame, e.Offset, e.Err)
}

// Unwrap exposes both the container sentinel and the underlying cause.
func (e *FrameError) Unwrap() []error {
	if e.kind == nil {
		return []error{ErrStream, e.Err}
	}
	return []error{e.kind, e.Err}
}

// Writer is PipeWriter; NewWriter returns its one-worker configuration,
// which compresses and writes every chunk on the caller's goroutine.
type Writer = PipeWriter

// Reader is PipeReader; NewReader returns its one-worker configuration,
// which reads and decodes every frame on the caller's goroutine.
type Reader = PipeReader

// NewWriter returns a streaming compressor writing to w that starts no
// goroutines (NewPipeWriter with parallelism 1). ChunkValues controls the
// chunk granularity (0 = DefaultChunkValues).
func NewWriter(w io.Writer, opt Options, chunkValues int) *Writer {
	return NewPipeWriter(w, opt, chunkValues, 1)
}

// NewReader returns a streaming decompressor reading from r that starts
// no goroutines (NewPipeReader with parallelism 1).
func NewReader(r io.Reader) *Reader {
	return NewPipeReader(r, 1)
}

// frameFormat is one container layout of the shape above. It is the only
// code that knows the framing: writers stage frames through openFrame/
// closeFrame and finish with appendEnd; readers parse through frameReader.
type frameFormat struct {
	magic   string
	version byte
	kind    error // sentinel every container error wraps
}

var streamFormat = &frameFormat{streamMagic, streamVersion, ErrStream}

// openFrame appends the container header (before the first frame only)
// and a placeholder for the frame's u32 length, returning the
// placeholder's offset for closeFrame. Header, length and payload are
// staged in one buffer so every frame reaches the sink as one Write.
func (f *frameFormat) openFrame(dst []byte, first bool) ([]byte, int) {
	if first {
		dst = append(dst, f.magic...)
		dst = append(dst, f.version)
	}
	at := len(dst)
	return append(dst, 0, 0, 0, 0), at
}

// closeFrame backfills the length of the frame opened at offset at.
func closeFrame(frame []byte, at int) []byte {
	binary.LittleEndian.PutUint32(frame[at:], uint32(len(frame)-at-4))
	return frame
}

// appendEnd appends the terminator — a zero length prefix — preceded by
// the container header when no frame was written (an empty stream).
func (f *frameFormat) appendEnd(dst []byte, empty bool) []byte {
	dst, _ = f.openFrame(dst, empty)
	return dst
}

// frameErr wraps a failure of frame idx, whose length prefix sits at
// container offset off.
func (f *frameFormat) frameErr(idx int, off int64, cause error) error {
	return &FrameError{Frame: idx, Offset: off, Err: cause, kind: f.kind}
}

// frameReader parses a container frame by frame.
type frameReader struct {
	r      io.Reader
	f      *frameFormat
	idx    int   // index of the next frame
	off    int64 // container bytes consumed so far
	opened bool
}

// next reads the next frame's payload into dst (reused), returning it with
// the frame's index and the offset of its length prefix. It returns io.EOF
// at the terminator; any other error is final and already wraps the
// container's sentinel.
func (fr *frameReader) next(dst []byte) (frame []byte, idx int, off int64, err error) {
	if !fr.opened {
		var hdr [5]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			return dst, 0, 0, fmt.Errorf("%w: container header: %w", fr.f.kind, err)
		}
		if string(hdr[:4]) != fr.f.magic || hdr[4] != fr.f.version {
			return dst, 0, 0, fr.f.kind
		}
		fr.opened = true
		fr.off = 5
	}
	idx, off = fr.idx, fr.off
	var lenBuf [4]byte
	if _, err := io.ReadFull(fr.r, lenBuf[:]); err != nil {
		return dst, idx, off, fr.f.frameErr(idx, off, fmt.Errorf("truncated frame header: %w", err))
	}
	fr.off += 4
	frameLen := binary.LittleEndian.Uint32(lenBuf[:])
	if frameLen == 0 {
		return dst, idx, off, io.EOF
	}
	if frameLen > 1<<31 {
		return dst, idx, off, fr.f.frameErr(idx, off, fmt.Errorf("frame length %d out of range", frameLen))
	}
	frame, err = readFrameBody(fr.r, dst, int(frameLen))
	fr.off += int64(len(frame))
	if err != nil {
		return frame, idx, off, fr.f.frameErr(idx, off, fmt.Errorf("truncated frame (%d of %d payload bytes): %w",
			len(frame), frameLen, err))
	}
	fr.idx++
	return frame, idx, off, nil
}

// readFrameBody reads frameLen payload bytes from r directly into the
// (reused) dst buffer, growing it incrementally so a forged length prefix
// cannot force a huge up-front allocation: capacity starts at ≤1 MiB and
// doubles only as real bytes arrive, so memory stays proportional to what
// was actually received. It returns the bytes received and any read error.
func readFrameBody(r io.Reader, dst []byte, frameLen int) ([]byte, error) {
	const step = 1 << 20
	frame := dst[:0]
	if cap(frame) < min(frameLen, step) {
		frame = make([]byte, 0, min(frameLen, step))
	}
	for len(frame) < frameLen {
		off := len(frame)
		avail := cap(frame) - off
		if avail == 0 {
			newCap := min(max(2*cap(frame), step), frameLen)
			grown := make([]byte, off, newCap)
			copy(grown, frame)
			frame = grown
			avail = newCap - off
		}
		n := min(frameLen-off, avail)
		got, err := io.ReadFull(r, frame[off:off+n])
		frame = frame[:off+got]
		if err != nil {
			return frame, err
		}
	}
	return frame, nil
}

// --- random access ---------------------------------------------------------

// DecompressRange reconstructs values [lo, hi) from a (non-streaming)
// compressed buffer, decoding only the blocks that overlap the range —
// random access enabled by the embedded per-block size array.
func DecompressRange(comp []byte, lo, hi int) ([]float32, error) {
	return core.DecompressFloat32Range(comp, lo, hi)
}

// DecompressFloat64Range is the float64 analogue of DecompressRange.
func DecompressFloat64Range(comp []byte, lo, hi int) ([]float64, error) {
	return core.DecompressFloat64Range(comp, lo, hi)
}
