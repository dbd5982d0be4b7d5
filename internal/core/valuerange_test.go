package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ieee"
	"repro/internal/kernels"
)

// refMinMax is the sequential compare fold ValueRange must reproduce: the
// scalar loop bound resolution ran before the scan moved onto the kernels.
func refMinMax[T Float](data []T) (mn, mx T) {
	mn, mx = data[0], data[0]
	for _, v := range data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// rangeBits is what bound resolution reads from a range: the bits of
// float64(mx)−float64(mn) and of |mx|.
func rangeBits[T Float](mn, mx T) (r, absMx uint64) {
	return math.Float64bits(float64(mx) - float64(mn)), math.Float64bits(math.Abs(float64(mx)))
}

// defaultMinBytes is the serial-fallback threshold as shipped, read before
// any test overrides it.
var defaultMinBytes = ParallelMinBytes

// rangeInputs builds the adversarial corpus: NaN at index 0, at chunk
// starts and at the last element, chunks that are all NaN, ±Inf, signed
// zeros, subnormals, constants, and lengths around the chunk size and the
// serial-fallback threshold.
func rangeInputs[T Float]() map[string][]T {
	nan, inf := T(math.NaN()), T(math.Inf(1))
	es := ieee.Width[T]()
	ramp := func(n int) []T {
		d := make([]T, n)
		for i := range d {
			d[i] = T(math.Sin(float64(i)*0.001)*100 + float64(i%97)*0.01)
		}
		return d
	}
	with := func(d []T, at map[int]T) []T {
		for i, v := range at {
			d[i] = v
		}
		return d
	}
	fill := func(n int, v T) []T {
		d := make([]T, n)
		for i := range d {
			d[i] = v
		}
		return d
	}
	zeros := func(n int, firstNeg bool) []T {
		d := make([]T, n)
		negZero := T(math.Copysign(0, -1))
		for i := range d {
			if (i%3 == 0) == firstNeg {
				d[i] = negZero
			}
		}
		return d
	}
	big := 3*rangeChunk + 17
	in := map[string][]T{
		"len1":                {3},
		"len1-nan":            {nan},
		"chunk-1":             ramp(rangeChunk - 1),
		"chunk":               ramp(rangeChunk),
		"chunk+1":             ramp(rangeChunk + 1),
		"minbytes-1":          ramp(defaultMinBytes/es - 1),
		"minbytes+1":          ramp(defaultMinBytes/es + 1),
		"multi-chunk":         ramp(big),
		"nan-at-0":            with(ramp(big), map[int]T{0: nan}),
		"nan-chunk-start":     with(ramp(big), map[int]T{rangeChunk: nan, 2 * rangeChunk: nan}),
		"nan-chunk-start-min": with(ramp(big), map[int]T{rangeChunk: nan, rangeChunk + 1: -1e6, 2*rangeChunk + 3: 1e6}),
		"nan-last":            with(ramp(big), map[int]T{big - 1: nan}),
		"nan-chunk":           with(ramp(big), nanRun[T](rangeChunk, 2*rangeChunk)),
		"nan-all-but-0":       with(fill(big, nan), map[int]T{0: 7}),
		"nan-tail-chunk":      with(ramp(rangeChunk+3), map[int]T{rangeChunk: nan, rangeChunk + 1: nan, rangeChunk + 2: -50}),
		"inf-pos":             with(ramp(big), map[int]T{2*rangeChunk + 5: inf}),
		"inf-neg":             with(ramp(big), map[int]T{5: -inf}),
		"inf-both":            with(ramp(big), map[int]T{rangeChunk: inf, 2 * rangeChunk: -inf}),
		"inf-all":             fill(big, inf),
		"inf-at-0":            with(fill(big, 1), map[int]T{0: inf}),
		"zeros-pos-first":     zeros(big, false),
		"zeros-neg-first":     zeros(big, true),
		"zeros-neg-chunk":     with(fill(big, 0), map[int]T{rangeChunk: T(math.Copysign(0, -1))}),
		"zeros-and-one":       with(zeros(big, true), map[int]T{2 * rangeChunk: 1}),
		"zeros-and-minus-one": with(zeros(big, false), map[int]T{rangeChunk + 9: -1}),
		"subnormal":           subnormals[T](big),
		"constant":            fill(big, 2.5),
		"constant-nan-starts": with(fill(big, 2.5), map[int]T{rangeChunk: nan, 3 * rangeChunk: nan}),
	}
	return in
}

func nanRun[T Float](lo, hi int) map[int]T {
	m := make(map[int]T, hi-lo)
	for i := lo; i < hi; i++ {
		m[i] = T(math.NaN())
	}
	return m
}

func subnormals[T Float](n int) []T {
	d := make([]T, n)
	for i := range d {
		if ieee.Width[T]() == 4 {
			d[i] = T(math.Float32frombits(uint32(1 + i%1000)))
		} else {
			d[i] = T(math.Float64frombits(uint64(1 + i%1000)))
		}
		if i%7 == 0 {
			d[i] = -d[i]
		}
	}
	return d
}

// kernelSets lists the kernel sets this build can dispatch.
func kernelSets() []string {
	sets := []string{"generic"}
	if _, ok := kernels.Lookup32("avx2"); ok {
		sets = append(sets, "avx2")
	}
	return sets
}

func checkValueRange[T Float](t *testing.T, name string, data []T, workers int) {
	t.Helper()
	wantR, wantMx := rangeBits(refMinMax(data))
	gotR, gotMx := rangeBits(ValueRange(data, workers))
	if gotR != wantR || gotMx != wantMx {
		rmn, rmx := refMinMax(data)
		mn, mx := ValueRange(data, workers)
		t.Fatalf("%s (n=%d, workers=%d): range %v..%v (r bits %#x, |mx| bits %#x), want %v..%v (%#x, %#x)",
			name, len(data), workers, mn, mx, gotR, gotMx, rmn, rmx, wantR, wantMx)
	}
}

// TestValueRangeMatchesScalarFold pins ValueRange bit-identical (in the
// quantities bound resolution reads) to the sequential fold, for both
// element types, both kernel sets, serial and pooled scans, and with the
// adaptive fallback both on and off.
func TestValueRangeMatchesScalarFold(t *testing.T) {
	workers := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	in32, in64 := rangeInputs[float32](), rangeInputs[float64]()
	for _, set := range kernelSets() {
		restore, err := kernels.SetActiveForTesting(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, minBytes := range []int{ParallelMinBytes, 0} {
			old := ParallelMinBytes
			ParallelMinBytes = minBytes
			for _, w := range workers {
				for name, d := range in32 {
					checkValueRange(t, fmt.Sprintf("%s/f32/%s/minbytes=%d", set, name, minBytes), d, w)
				}
				for name, d := range in64 {
					checkValueRange(t, fmt.Sprintf("%s/f64/%s/minbytes=%d", set, name, minBytes), d, w)
				}
			}
			ParallelMinBytes = old
		}
		restore()
	}
}

// TestValueRangeZeroAlloc pins the warm pooled scan at zero allocations:
// the job is recycled and its worker function is bound once, so handing
// it to the pool allocates nothing.
func TestValueRangeZeroAlloc(t *testing.T) {
	old := ParallelMinBytes
	ParallelMinBytes = 0
	defer func() { ParallelMinBytes = old }()
	d32, d64 := rangeInputs[float32]()["multi-chunk"], rangeInputs[float64]()["multi-chunk"]
	for _, w := range []int{1, 2, 4} {
		ValueRange(d32, w)
		ValueRange(d64, w)
		if n := testing.AllocsPerRun(20, func() {
			ValueRange(d32, w)
			ValueRange(d64, w)
		}); n != 0 {
			t.Fatalf("warm ValueRange at %d workers: %v allocs/op, want 0", w, n)
		}
	}
}

// FuzzValueRange cross-checks ValueRange against the sequential fold on
// arbitrary bit patterns (NaN payloads, ±Inf, signed zeros, subnormals)
// tiled out past several chunk boundaries, with the pooled scan forced on.
// raw is read as little-endian float64 words; every eighth value of the
// float32 view is taken from the low word bits so both widths see specials.
func FuzzValueRange(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(1, 2, 3), uint32(10), uint8(2))
	f.Add(word(math.NaN(), 1, -1), uint32(2*rangeChunk+1), uint8(2))
	f.Add(word(0, math.Copysign(0, -1)), uint32(3*rangeChunk), uint8(3))
	f.Add(word(math.Inf(1), 5, math.Inf(-1)), uint32(rangeChunk+1), uint8(4))
	f.Add(word(5, math.NaN(), math.NaN()), uint32(2*rangeChunk), uint8(2))
	f.Add(word(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64), uint32(rangeChunk+7), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, n uint32, w uint8) {
		if len(raw) < 8 {
			return
		}
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		size := int(n%(4*rangeChunk)) + 1
		d64 := make([]float64, size)
		d32 := make([]float32, size)
		for i := range d64 {
			d64[i] = vals[i%len(vals)]
			d32[i] = float32(d64[i])
			if i%8 == 7 {
				d32[i] = math.Float32frombits(uint32(math.Float64bits(d64[i])))
			}
		}
		old := ParallelMinBytes
		ParallelMinBytes = 0
		defer func() { ParallelMinBytes = old }()
		workers := int(w%5) + 1
		checkValueRange(t, "fuzz/f64", d64, workers)
		checkValueRange(t, "fuzz/f32", d32, workers)
	})
}

// BenchmarkValueRange separates the scan's two gains on a 64 MiB float32
// field: the scalar fold, the Stats kernel on one goroutine, and the
// kernel split across the pool.
func BenchmarkValueRange(b *testing.B) {
	data := benchData(16 << 20)
	for _, bc := range []struct {
		name string
		scan func() (float32, float32)
	}{
		{"scalar", func() (float32, float32) { return refMinMax(data) }},
		{"kernel", func() (float32, float32) { return ValueRange(data, 1) }},
		{"kernel-pool", func() (float32, float32) { return ValueRange(data, runtime.GOMAXPROCS(0)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.scan()
			}
		})
	}
}
