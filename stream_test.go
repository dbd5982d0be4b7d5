package szx

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/telemetry"
)

func TestStreamRoundTrip(t *testing.T) {
	data := testField(300000, 11)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 1<<16)
	// Write in uneven pieces to exercise buffering.
	for lo := 0; lo < len(data); {
		hi := lo + 7000
		if hi > len(data) {
			hi = len(data)
		}
		if err := w.Write(data[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= 4*len(data) {
		t.Errorf("stream did not compress: %d bytes", buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("got %d values want %d", len(out), len(data))
	}
	for i := range data {
		if math.Abs(float64(data[i])-float64(out[i])) > 1e-3 {
			t.Fatalf("value %d exceeds bound", i)
		}
	}
}

func TestStreamReadChunked(t *testing.T) {
	data := testField(100000, 12)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-4}, 1<<14)
	if err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	var out []float32
	p := make([]float32, 777)
	for {
		n, err := r.Read(p)
		out = append(out, p[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) != len(data) {
		t.Fatalf("got %d values want %d", len(out), len(data))
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d values", len(out))
	}
	// Read on the drained stream keeps returning EOF.
	if _, err := r.Read(make([]float32, 4)); err != io.EOF {
		t.Fatalf("got %v", err)
	}
}

// countingWriter records each underlying Write so tests can pin the
// syscall-per-chunk contract of the staged writer.
type countingWriter struct {
	writes int
	bytes  int
	buf    bytes.Buffer
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	cw.writes++
	cw.bytes += len(p)
	return cw.buf.Write(p)
}

// TestStreamWriteCoalescing pins the Writer's I/O shape: every chunk is
// emitted as exactly one underlying Write (the first carrying the container
// magic), plus one final Write for the terminator — the unbuffered
// instrument path must not pay separate header and payload syscalls.
func TestStreamWriteCoalescing(t *testing.T) {
	data := testField(50000, 17)
	var cw countingWriter
	const chunk = 1 << 14
	w := NewWriter(&cw, Options{ErrorBound: 1e-3}, chunk)
	if err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	chunks := (len(data) + chunk - 1) / chunk
	if want := chunks + 1; cw.writes != want {
		t.Fatalf("got %d underlying writes for %d chunks, want %d (one per chunk + terminator)", cw.writes, chunks, want)
	}
	if cw.bytes != cw.buf.Len() {
		t.Fatalf("byte accounting mismatch: %d vs %d", cw.bytes, cw.buf.Len())
	}
	// The coalesced frames must decode identically to the original contract.
	out, err := NewReader(bytes.NewReader(cw.buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("round trip length %d, want %d", len(out), len(data))
	}
	for i := range out {
		if math.Abs(float64(out[i])-float64(data[i])) > 1e-3 {
			t.Fatalf("value %d out of bound", i)
		}
	}

	// Empty stream: magic + terminator coalesce into a single Write.
	var cw2 countingWriter
	w2 := NewWriter(&cw2, Options{ErrorBound: 1e-3}, 0)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if cw2.writes != 1 {
		t.Fatalf("empty stream used %d writes, want 1", cw2.writes)
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]float32{1}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

func TestStreamTruncated(t *testing.T) {
	data := testField(50000, 13)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 1<<14)
	if err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cutting anywhere must yield an error (or clean EOF at a frame edge),
	// never a panic; data decoded before the cut must respect the bound.
	for cut := 0; cut < len(full); cut += len(full)/40 + 1 {
		r := NewReader(bytes.NewReader(full[:cut]))
		out, err := r.ReadAll()
		if err == nil && cut < len(full)-4 && len(out) == len(data) {
			t.Fatalf("cut=%d: full data recovered from truncated stream", cut)
		}
		for i := range out {
			if math.Abs(float64(data[i])-float64(out[i])) > 1e-3 {
				t.Fatalf("cut=%d: recovered value %d exceeds bound", cut, i)
			}
		}
	}
}

func TestStreamGarbage(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("this is not a stream")))
	if _, err := r.ReadAll(); err == nil {
		t.Fatal("garbage accepted")
	}
}

// streamFrameOffsets walks a serialized container and returns the byte
// offset of each frame's u32 length prefix, independently of the Reader
// under test.
func streamFrameOffsets(t *testing.T, full []byte) []int64 {
	t.Helper()
	var offs []int64
	off := int64(5) // container magic + version
	for {
		if off+4 > int64(len(full)) {
			t.Fatalf("container ends mid-frame-header at offset %d", off)
		}
		frameLen := int64(uint32(full[off]) | uint32(full[off+1])<<8 |
			uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		if frameLen == 0 {
			return offs
		}
		offs = append(offs, off)
		off += 4 + frameLen
	}
}

// TestStreamFrameError pins the Reader's corruption reporting: the error
// names the exact frame index and container offset, keeps both ErrStream
// and the underlying cause reachable through errors.Is, and bumps the
// (ungated) telemetry frame-error counter.
func TestStreamFrameError(t *testing.T) {
	data := testField(3*16384, 21)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3}, 1<<14)
	if err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	offs := streamFrameOffsets(t, full)
	if len(offs) != 3 {
		t.Fatalf("got %d frames; want 3", len(offs))
	}

	readAll := func(blob []byte) error {
		_, err := NewReader(bytes.NewReader(blob)).ReadAll()
		return err
	}
	checkFrameErr := func(t *testing.T, err error, frame int, off int64, cause error) {
		t.Helper()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("error %v (%T) is not a *FrameError", err, err)
		}
		if fe.Frame != frame || fe.Offset != off {
			t.Errorf("FrameError{Frame: %d, Offset: %d}; want frame %d at offset %d",
				fe.Frame, fe.Offset, frame, off)
		}
		if !errors.Is(err, ErrStream) {
			t.Errorf("%v does not unwrap to ErrStream", err)
		}
		if !errors.Is(err, cause) {
			t.Errorf("%v does not unwrap to cause %v", err, cause)
		}
	}

	t.Run("truncated payload", func(t *testing.T) {
		before := telemetry.StreamFrameErrors.Load()
		// Cut 10 bytes into the third frame's payload.
		err := readAll(full[:offs[2]+4+10])
		checkFrameErr(t, err, 2, offs[2], io.ErrUnexpectedEOF)
		if got := telemetry.StreamFrameErrors.Load() - before; got != 1 {
			t.Errorf("StreamFrameErrors delta = %d; want 1 (error counters are ungated)", got)
		}
	})

	t.Run("truncated length prefix", func(t *testing.T) {
		err := readAll(full[:offs[1]+2])
		checkFrameErr(t, err, 1, offs[1], io.ErrUnexpectedEOF)
	})

	t.Run("corrupt frame body", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		copy(bad[offs[1]+4:], "junk") // clobber the inner SZx header magic
		err := readAll(bad)
		checkFrameErr(t, err, 1, offs[1], ErrBadMagic)
	})

	t.Run("frames before the bad one still decode", func(t *testing.T) {
		r := NewReader(bytes.NewReader(full[:offs[2]+4+10]))
		out, err := r.ReadAll()
		if err == nil {
			t.Fatal("truncated stream decoded without error")
		}
		if len(out) != 2*16384 {
			t.Fatalf("recovered %d values before the bad frame; want %d", len(out), 2*16384)
		}
		for i := range out {
			if math.Abs(float64(data[i])-float64(out[i])) > 1e-3 {
				t.Fatalf("recovered value %d exceeds bound", i)
			}
		}
	})
}

// TestStreamReaderPinsFrameError pins that a frame failure is terminal:
// after it, ReadAll and Read return the same *FrameError and no values
// instead of resuming at the next frame and silently dropping the bad one.
func TestStreamReaderPinsFrameError(t *testing.T) {
	data := testField(3*16384, 21)
	blob := serialStreamBytes(t, data, Options{ErrorBound: 1e-3}, 1<<14)
	offs := streamFrameOffsets(t, blob)
	bad := append([]byte(nil), blob...)
	copy(bad[offs[1]+4:], "junk")

	pr := NewPipeReader(bytes.NewReader(bad), 2)
	defer pr.Close()
	for _, tc := range []struct {
		name string
		r    interface {
			Read([]float32) (int, error)
			ReadAll() ([]float32, error)
		}
	}{
		{"NewReader", NewReader(bytes.NewReader(bad))},
		{"NewPipeReader/2", pr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.r.ReadAll()
			var fe *FrameError
			if !errors.As(err, &fe) || fe.Frame != 1 {
				t.Fatalf("first ReadAll: %v; want a *FrameError for frame 1", err)
			}
			if len(out) != 16384 {
				t.Fatalf("first ReadAll recovered %d values; want 16384", len(out))
			}
			if out, err2 := tc.r.ReadAll(); err2 != err || len(out) != 0 {
				t.Fatalf("second ReadAll: %d values, %v; want 0 values and %v", len(out), err2, err)
			}
			if n, err3 := tc.r.Read(make([]float32, 64)); err3 != err || n != 0 {
				t.Fatalf("Read after the failure: %d values, %v; want 0 values and %v", n, err3, err)
			}
		})
	}
}

// TestStreamInlineStartsNoGoroutines pins inline mode: the one-worker
// configuration does all its work on the caller's goroutine, from
// construction through Close (writing) and EOF (reading).
func TestStreamInlineStartsNoGoroutines(t *testing.T) {
	data := testField(5*4096+17, 5)
	opt := Options{ErrorBound: 1e-3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	check := func(step string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines > baseline %d\n%s", step, n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
	var blob []byte
	for name, open := range map[string]func(io.Writer) *PipeWriter{
		"NewWriter":              func(w io.Writer) *PipeWriter { return NewWriter(w, opt, 4096) },
		"NewPipeWriter/1":        func(w io.Writer) *PipeWriter { return NewPipeWriter(w, opt, 4096, 1) },
		"NewPipeWriterContext/1": func(w io.Writer) *PipeWriter { return NewPipeWriterContext(ctx, w, opt, 4096, 1) },
	} {
		var buf bytes.Buffer
		w := open(&buf)
		check(name + " construction")
		if err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		check(name + " Write")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		check(name + " Close")
		blob = buf.Bytes()
	}
	for name, open := range map[string]func() *PipeReader{
		"NewReader":              func() *PipeReader { return NewReader(bytes.NewReader(blob)) },
		"NewPipeReader/1":        func() *PipeReader { return NewPipeReader(bytes.NewReader(blob), 1) },
		"NewPipeReaderContext/1": func() *PipeReader { return NewPipeReaderContext(ctx, bytes.NewReader(blob), 1) },
	} {
		r := open()
		check(name + " construction")
		if _, err := r.Read(make([]float32, 100)); err != nil {
			t.Fatal(err)
		}
		check(name + " Read")
		out, err := r.ReadAll()
		if err != nil || len(out) != len(data)-100 {
			t.Fatalf("%s: ReadAll: %d values, %v", name, len(out), err)
		}
		check(name + " EOF")
	}
}

// TestTimeStreamFrameError pins the SZXT error contract: an undecodable
// frame is a counted *FrameError naming the frame, unwrapping to
// ErrTimeStream (not ErrStream) and the decoder's cause, and it is pinned.
func TestTimeStreamFrameError(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTimeStreamWriter(&buf, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	base := testField(4096, 8)
	for f := 0; f < 3; f++ {
		frame := make([]float32, len(base))
		for i := range frame {
			frame[i] = base[i] + 0.01*float32(f)
		}
		if err := tw.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	offs := streamFrameOffsets(t, buf.Bytes())
	if len(offs) != 3 {
		t.Fatalf("got %d frames; want 3", len(offs))
	}
	bad := append([]byte(nil), buf.Bytes()...)
	copy(bad[offs[1]+5:], "junk") // past the delta tag: the inner SZx magic

	before := telemetry.StreamFrameErrors.Load()
	tr := NewTimeStreamReader(bytes.NewReader(bad))
	defer tr.Close()
	if _, err := tr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	_, err = tr.ReadFrame()
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Frame != 1 || fe.Offset != offs[1] {
		t.Fatalf("got %v; want a *FrameError for frame 1 at offset %d", err, offs[1])
	}
	if !errors.Is(err, ErrTimeStream) || errors.Is(err, ErrStream) || !errors.Is(err, ErrBadMagic) {
		t.Errorf("%v: want ErrTimeStream and ErrBadMagic, not ErrStream", err)
	}
	if got := telemetry.StreamFrameErrors.Load() - before; got != 1 {
		t.Errorf("StreamFrameErrors delta = %d; want 1", got)
	}
	if _, err2 := tr.ReadFrame(); err2 != err {
		t.Errorf("ReadFrame after the failure: %v; want %v", err2, err)
	}
}

func TestStreamRelativeMode(t *testing.T) {
	data := testField(80000, 14)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{ErrorBound: 1e-3, Mode: BoundRelative}, 1<<15)
	if err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatal("length mismatch")
	}
}

func TestDecompressRange(t *testing.T) {
	data := testField(100000, 15)
	comp, err := Compress(data, Options{ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2]int{
		{0, 100}, {0, len(data)}, {12345, 12346}, {99990, 100000},
		{128, 256}, {127, 129}, {50000, 50000},
	}
	for _, c := range cases {
		part, err := DecompressRange(comp, c[0], c[1])
		if err != nil {
			t.Fatalf("range %v: %v", c, err)
		}
		if len(part) != c[1]-c[0] {
			t.Fatalf("range %v: got %d values", c, len(part))
		}
		for i := range part {
			if part[i] != full[c[0]+i] {
				t.Fatalf("range %v: value %d differs from full decode", c, i)
			}
		}
	}
	// Out-of-range requests error.
	if _, err := DecompressRange(comp, -1, 10); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := DecompressRange(comp, 0, len(data)+1); err == nil {
		t.Error("hi beyond N accepted")
	}
	if _, err := DecompressRange(comp, 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestDecompressRangeFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = math.Sin(float64(i)/300) + 0.01*rng.NormFloat64()
	}
	comp, err := CompressFloat64(data, Options{ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecompressFloat64(comp)
	if err != nil {
		t.Fatal(err)
	}
	part, err := DecompressFloat64Range(comp, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if part[i] != full[1000+i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

// Property: random range requests always agree with the full decode.
func TestDecompressRangeProperty(t *testing.T) {
	data := testField(20000, 17)
	comp, err := Compress(data, Options{ErrorBound: 1e-3, BlockSize: 37})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		lo := int(a) % len(data)
		hi := lo + int(b)%(len(data)-lo) + 1
		if hi > len(data) {
			hi = len(data)
		}
		part, err := DecompressRange(comp, lo, hi)
		if err != nil {
			return false
		}
		for i := range part {
			if part[i] != full[lo+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
