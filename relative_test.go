package szx

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// relFields returns one field per datagen app at a scale where every field
// spans several range-scan chunks, in float32 and widened to float64.
func relFields(t *testing.T) ([]datagen.Field, [][]float64) {
	t.Helper()
	var f32 []datagen.Field
	var f64 [][]float64
	for _, app := range datagen.AllApps(8, 42) {
		f := app.Fields[0]
		f32 = append(f32, f)
		w := make([]float64, len(f.Data))
		for i, v := range f.Data {
			w[i] = float64(v)
		}
		f64 = append(f64, w)
	}
	return f32, f64
}

// scalarRangeBound is the relative bound as resolved by a sequential
// compare fold over the whole field.
func scalarRangeBound[T Float](data []T, rel float64) float64 {
	mn, mx := data[0], data[0]
	for _, v := range data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return rel * (float64(mx) - float64(mn))
}

// relativeStreams compresses data under a relative bound through every
// entry point that resolves one and reports each stream by name.
func relativeStreams[T Float](t *testing.T, data []T, opt Options) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	add := func(name string, b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = bytes.Clone(b)
	}
	b, err := CompressInto(nil, data, opt)
	add("CompressInto", b, err)
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), 4} {
		b, err := CompressParallelInto(nil, data, opt, w)
		add("CompressParallelInto/"+strconv.Itoa(w), b, err)
	}
	for _, w := range []int{WorkersSerial, WorkersAuto, 2} {
		o := opt
		o.Workers = w
		b, err := NewCodec[T](o).Compress(data)
		add("Codec/workers="+strconv.Itoa(w), b, err)
	}
	return out
}

// TestRelativeBoundStreamsIdentical pins every relative-bound entry point
// to the bytes of an absolute-bound compression at the bound a sequential
// range fold resolves, serial and pooled range scans alike.
func TestRelativeBoundStreamsIdentical(t *testing.T) {
	f32, f64 := relFields(t)
	for _, minBytes := range []int{core.ParallelMinBytes, 0} {
		old := core.ParallelMinBytes
		core.ParallelMinBytes = minBytes
		for i, f := range f32 {
			for _, rel := range []float64{1e-2, 1e-4} {
				opt := Options{ErrorBound: rel, Mode: BoundRelative}
				want, err := CompressInto(nil, f.Data, Options{ErrorBound: scalarRangeBound(f.Data, rel)})
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range relativeStreams(t, f.Data, opt) {
					if !bytes.Equal(got, want) {
						t.Fatalf("f32 %s rel=%g minbytes=%d: %s stream differs from the scalar-range bound's", f.Name, rel, minBytes, name)
					}
				}
				want, err = CompressInto(nil, f64[i], Options{ErrorBound: scalarRangeBound(f64[i], rel)})
				if err != nil {
					t.Fatal(err)
				}
				for name, got := range relativeStreams(t, f64[i], opt) {
					if !bytes.Equal(got, want) {
						t.Fatalf("f64 %s rel=%g minbytes=%d: %s stream differs from the scalar-range bound's", f.Name, rel, minBytes, name)
					}
				}
			}
		}
		core.ParallelMinBytes = old
	}
}

// TestRelativeBoundAllocs pins the range scan's allocation cost: a warm
// serial relative-bound CompressInto allocates nothing, and a
// relative-bound CompressParallelInto allocates no more than the same call
// with the resolved absolute bound, so the pooled scan adds nothing.
func TestRelativeBoundAllocs(t *testing.T) {
	f32, _ := relFields(t)
	data := f32[0].Data
	rel := Options{ErrorBound: 1e-3, Mode: BoundRelative}
	abs := Options{ErrorBound: scalarRangeBound(data, 1e-3)}
	buf, err := CompressInto(nil, data, rel)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		buf, _ = CompressInto(buf[:0], data, rel)
	}); n != 0 {
		t.Fatalf("warm serial relative-bound CompressInto: %v allocs/op, want 0", n)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; parallel counts are not repeatable")
	}
	w := max(2, runtime.GOMAXPROCS(0))
	old := core.ParallelMinBytes
	core.ParallelMinBytes = 0
	defer func() { core.ParallelMinBytes = old }()
	par := func(opt Options) float64 {
		buf, _ = CompressParallelInto(buf[:0], data, opt, w)
		return testing.AllocsPerRun(50, func() {
			buf, _ = CompressParallelInto(buf[:0], data, opt, w)
		})
	}
	a, r := par(abs), par(rel)
	t.Logf("CompressParallelInto at %d workers: absolute %v allocs/op, relative %v", w, a, r)
	if r > a {
		t.Fatalf("relative-bound CompressParallelInto at %d workers: %v allocs/op, absolute %v", w, r, a)
	}
}
