package main

import (
	"math"
	"math/rand"
	"unsafe"

	"repro/internal/datagen"
)

// relBound is the value-range-relative error bound every workload uses.
const relBound = 1e-3

// field is one generated variable with the absolute bound that relBound
// resolves to over its own value range.
type field struct {
	name  string
	dims  []int
	data  []float32
	bound float64
}

var apps = map[string]func(int, int64) datagen.App{
	"cesm":      datagen.CESM,
	"hurricane": datagen.Hurricane,
	"miranda":   datagen.Miranda,
	"nyx":       datagen.Nyx,
	"qmcpack":   datagen.QMCPack,
	"scale":     datagen.ScaleLetKF,
}

type appScale struct {
	app   string
	scale int
}

// genFields generates the named datagen applications from the seed. The
// program under test sees only the resulting arrays.
func genFields(seed int64, which ...appScale) []field {
	var out []field
	for _, w := range which {
		app := apps[w.app](w.scale, seed)
		for _, f := range app.Fields {
			out = append(out, field{name: app.Name + "/" + f.Name, dims: f.Dims, data: f.Data, bound: absBound(f.Data)})
		}
	}
	return out
}

// absBound is relBound resolved over data's value range exactly as the
// codec resolves a relative bound.
func absBound[T float32 | float64](data []T) float64 {
	mn, mx := minMax(data)
	return relBound * (float64(mx) - float64(mn))
}

func minMax[T float32 | float64](data []T) (mn, mx T) {
	if len(data) == 0 {
		return 0, 0
	}
	mn, mx = data[0], data[0]
	for _, v := range data[1:] {
		mn, mx = min(mn, v), max(mx, v)
	}
	return mn, mx
}

// widen converts to float64.
func widen(src []float32) []float64 {
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = float64(v)
	}
	return out
}

// logUniform draws an integer in [lo, hi] uniformly in log scale.
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	return min(hi, max(lo, int(v)))
}

// stratified draws n sizes in [lo, hi] log-uniformly, one per equal
// log-width stratum, in ascending strata: the size mix, and which caller
// position gets which stratum, are the same for every seed while the sizes
// within each stratum vary.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	l0, l1 := math.Log(float64(lo)), math.Log(float64(hi))
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		out[i] = min(hi, max(lo, int(math.Exp(l0+u*(l1-l0)))))
	}
	return out
}

// piece is a contiguous slice of a field, with the field's bound.
type piece struct {
	data  []float32
	bound float64
}

// cut slices every field into consecutive pieces of lo..hi values
// (log-uniform sizes); a field's last piece takes what remains.
func cut(rng *rand.Rand, fields []field, lo, hi int) []piece {
	var out []piece
	for _, f := range fields {
		for off := 0; off < len(f.data); {
			n := min(logUniform(rng, lo, hi), len(f.data)-off)
			out = append(out, piece{data: f.data[off : off+n], bound: f.bound})
			off += n
		}
	}
	return out
}

// byteView reinterprets a float32 slice as its little-endian bytes (the
// host is little-endian on every platform this benchmark runs on).
func byteView(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}
