package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/datagen"
)

// paperRELs are the three value-range-based bounds of Tables 3-7.
var paperRELs = []float64{1e-2, 1e-3, 1e-4}

func (c Config) rels() []float64 {
	if c.Quick {
		return []float64{1e-3}
	}
	return paperRELs
}

// Table3 reproduces the compression-ratio table: min/overall/max CR per
// application for SZx, ZFP, SZ, and the lossless stand-in.
func Table3(cfg Config) (Report, error) {
	apps := cfg.apps()
	if cfg.Quick {
		for i := range apps {
			apps[i] = cfg.sampleFields(apps[i], 2)
		}
	}
	codecs := []codec{szxCodec(1), zfpCodec(), szCodec(), zstdLikeCodec()}

	rep := Report{
		ID:     "Table 3",
		Title:  "Compression ratios (min / overall / max per application)",
		Header: []string{"codec", "rel"},
	}
	for _, app := range apps {
		rep.Header = append(rep.Header, app.Short)
	}
	for _, c := range codecs {
		rels := cfg.rels()
		if c.name == "zstd*" {
			rels = rels[:1] // lossless: bound-independent, one row
		}
		for _, rel := range rels {
			row := []string{c.name, fmt.Sprintf("%.0e", rel)}
			if c.name == "zstd*" {
				row[1] = "-"
			}
			for _, app := range apps {
				mn, overall, mx, err := crStats(app, rel, c)
				if err != nil {
					return Report{}, err
				}
				row = append(row, fmt.Sprintf("%s/%s/%s", f1(mn), f1(overall), f1(mx)))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: SZx overall 3-12 (up to 124 per field); ZFP 0.5-3x higher; SZ 3-30x higher; zstd 1.1-1.5")
	return rep, nil
}

// throughputs measures each codec's aggregate throughput over an app's
// fields (MB/s), compressing or decompressing. The codecs are timed in
// interleaved rounds — every codec once per round on each field, in turn —
// and each keeps its best round per field, so a burst of load on the host
// lands on all codecs alike instead of on whichever one happened to run
// through it, and the ratios between codecs stay put.
func (cfg Config) throughputs(app datagen.App, rel float64, codecs []codec, decompress bool) ([]float64, error) {
	rounds := 3
	if cfg.Quick {
		rounds = 5 // one call per timing: more rounds to find a quiet one
	}
	secs := make([]float64, len(codecs))
	best := make([]float64, len(codecs))
	runs := make([]func() error, len(codecs))
	var totalBytes float64
	for _, f := range app.Fields {
		abs := relToAbs(f.Data, rel)
		for i, c := range codecs {
			comp, err := c.compress(f.Data, f.Dims, abs)
			if err != nil {
				return nil, err
			}
			if decompress {
				if _, err := c.decompress(comp, len(f.Data)); err != nil {
					return nil, err
				}
				runs[i] = func() error { _, err := c.decompress(comp, len(f.Data)); return err }
			} else {
				runs[i] = func() error { _, err := c.compress(f.Data, f.Dims, abs); return err }
			}
		}
		for r := 0; r < rounds; r++ {
			for i, run := range runs {
				var err error
				sec := cfg.measure(func() {
					if e := run(); e != nil {
						err = e
					}
				})
				if err != nil {
					return nil, err
				}
				if r == 0 || sec < best[i] {
					best[i] = sec
				}
			}
		}
		for i := range secs {
			secs[i] += best[i]
		}
		totalBytes += float64(4 * len(f.Data))
	}
	mbps := make([]float64, len(codecs))
	for i := range mbps {
		mbps[i] = totalBytes / secs[i] / 1e6
	}
	return mbps, nil
}

func speedTable(cfg Config, id, title string, decompress bool, codecs []codec) (Report, error) {
	apps := cfg.apps()
	if cfg.Quick {
		for i := range apps {
			apps[i] = cfg.sampleFields(apps[i], 1)
		}
		apps = apps[:2]
	}
	rep := Report{ID: id, Title: title, Header: []string{"codec", "rel"}}
	for _, app := range apps {
		rep.Header = append(rep.Header, app.Short)
	}
	rels := cfg.rels()
	// mbps[r][a][c] is codec c's throughput at rels[r] on apps[a].
	mbps := make([][][]float64, len(rels))
	for r, rel := range rels {
		for _, app := range apps {
			m, err := cfg.throughputs(app, rel, codecs, decompress)
			if err != nil {
				return Report{}, err
			}
			mbps[r] = append(mbps[r], m)
		}
	}
	for c, cd := range codecs {
		for r, rel := range rels {
			row := []string{cd.name, fmt.Sprintf("%.0e", rel)}
			for _, m := range mbps[r] {
				row = append(row, fmt.Sprintf("%.0f", m[c]))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Table4 reproduces single-core compression throughput (MB/s).
func Table4(cfg Config) (Report, error) {
	rep, err := speedTable(cfg, "Table 4", "Compression throughput on single core (MB/s)",
		false, []codec{szxCodec(1), zfpCodec(), szCodec()})
	if err != nil {
		return rep, err
	}
	rep.Notes = append(rep.Notes,
		"paper: SZx 2.5-5x faster than ZFP, 5-7x faster than SZ in compression")
	return rep, nil
}

// Table5 reproduces single-core decompression throughput (MB/s).
func Table5(cfg Config) (Report, error) {
	rep, err := speedTable(cfg, "Table 5", "Decompression throughput on single core (MB/s)",
		true, []codec{szxCodec(1), zfpCodec(), szCodec()})
	if err != nil {
		return rep, err
	}
	rep.Notes = append(rep.Notes,
		"paper: SZx 2-4x as fast as both SZ and ZFP in decompression")
	return rep, nil
}

// chunked wraps a serial codec with data-parallel chunking over the slowest
// dimension, the stand-in for the baselines' OpenMP builds (omp-SZ /
// omp-ZFP): independent subvolumes are compressed concurrently.
func chunked(base codec, workers int, supports2D bool) codec {
	return codec{
		name: "omp-" + base.name,
		compress: func(data []float32, dims []int, abs float64) ([]byte, error) {
			if !supports2D && len(dims) < 3 {
				return nil, errUnsupported
			}
			w := core.Workers(workers)
			slabs := splitSlabs(data, dims, w)
			outs := make([][]byte, len(slabs))
			errs := make([]error, len(slabs))
			var wg sync.WaitGroup
			for i, s := range slabs {
				wg.Add(1)
				go func(i int, s slab) {
					defer wg.Done()
					outs[i], errs[i] = base.compress(s.data, s.dims, abs)
				}(i, s)
			}
			wg.Wait()
			var total []byte
			for i := range outs {
				if errs[i] != nil {
					return nil, errs[i]
				}
				total = append(total, outs[i]...)
			}
			return total, nil
		},
		decompress: nil, // wired per use; omp-ZFP has none (paper: n/a)
	}
}

var errUnsupported = fmt.Errorf("experiments: configuration unsupported (n/a in the paper)")

type slab struct {
	data []float32
	dims []int
}

// splitSlabs cuts data into ~parts contiguous slabs along dims[0].
func splitSlabs(data []float32, dims []int, parts int) []slab {
	d0 := dims[0]
	if parts > d0 {
		parts = d0
	}
	inner := 1
	for _, d := range dims[1:] {
		inner *= d
	}
	var out []slab
	for p := 0; p < parts; p++ {
		lo := p * d0 / parts
		hi := (p + 1) * d0 / parts
		if hi == lo {
			continue
		}
		nd := append([]int{hi - lo}, dims[1:]...)
		out = append(out, slab{data: data[lo*inner : hi*inner], dims: nd})
	}
	return out
}

// Table6 reproduces multicore compression throughput (GB/s): goroutine
// block-parallel SZx against slab-parallel SZ and ZFP. As in the paper,
// omp-SZ does not handle the 2-D CESM dataset (n/a).
func Table6(cfg Config) (Report, error) {
	apps := cfg.apps()
	if cfg.Quick {
		for i := range apps {
			apps[i] = cfg.sampleFields(apps[i], 1)
		}
		apps = apps[:3]
	}
	w := core.Workers(cfg.Workers)
	type entry struct {
		name     string
		compress func(data []float32, dims []int, abs float64) ([]byte, error)
	}
	entries := []entry{
		{"omp-SZx", szxCodec(w).compress},
		{"omp-ZFP", chunked(zfpCodec(), w, true).compress},
		{"omp-SZ", chunked(szCodec(), w, false).compress},
	}
	rep := Report{
		ID:     "Table 6",
		Title:  fmt.Sprintf("Compression throughput on multicore CPU (GB/s, %d workers)", w),
		Header: []string{"codec", "rel"},
	}
	for _, app := range apps {
		rep.Header = append(rep.Header, app.Short)
	}
	for _, e := range entries {
		for _, rel := range cfg.rels() {
			row := []string{e.name, fmt.Sprintf("%.0e", rel)}
			for _, app := range apps {
				var totalBytes, totalSec float64
				na := false
				for _, f := range app.Fields {
					abs := relToAbs(f.Data, rel)
					if _, err := e.compress(f.Data, f.Dims, abs); err == errUnsupported {
						na = true
						break
					} else if err != nil {
						return Report{}, err
					}
					var err error
					sec := cfg.measure(func() {
						_, cerr := e.compress(f.Data, f.Dims, abs)
						if cerr != nil {
							err = cerr
						}
					})
					if err != nil {
						return Report{}, err
					}
					totalSec += sec
					totalBytes += float64(4 * len(f.Data))
				}
				if na {
					row = append(row, "n/a")
				} else {
					row = append(row, f2(totalBytes/totalSec/1e9))
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: omp-SZx 3.4-6.8x over omp-ZFP and 2.4-4.8x over omp-SZ; omp-SZ lacks 2-D (CESM n/a)",
		"on a single-CPU host the goroutine pool cannot show wall-clock scaling; the per-codec ordering and the block-parallel design (verified bit-identical to serial) are the reproduced properties")
	return rep, nil
}

// Table7 reproduces multicore decompression throughput (GB/s). As in the
// paper, ZFP has no multithreaded decompressor (all n/a), so the comparison
// is SZx vs slab-parallel SZ.
func Table7(cfg Config) (Report, error) {
	apps := cfg.apps()
	if cfg.Quick {
		for i := range apps {
			apps[i] = cfg.sampleFields(apps[i], 1)
		}
		apps = apps[:3]
	}
	w := core.Workers(cfg.Workers)

	rep := Report{
		ID:     "Table 7",
		Title:  fmt.Sprintf("Decompression throughput on multicore CPU (GB/s, %d workers)", w),
		Header: []string{"codec", "rel"},
	}
	for _, app := range apps {
		rep.Header = append(rep.Header, app.Short)
	}

	for _, rel := range cfg.rels() {
		row := []string{"omp-SZx", fmt.Sprintf("%.0e", rel)}
		for _, app := range apps {
			var totalBytes, totalSec float64
			for _, f := range app.Fields {
				abs := relToAbs(f.Data, rel)
				comp, err := core.CompressFloat32(f.Data, abs, core.Options{})
				if err != nil {
					return Report{}, err
				}
				sec := cfg.measure(func() {
					_, derr := core.DecompressFloat32Parallel(comp, w)
					if derr != nil {
						err = derr
					}
				})
				if err != nil {
					return Report{}, err
				}
				totalSec += sec
				totalBytes += float64(4 * len(f.Data))
			}
			row = append(row, f2(totalBytes/totalSec/1e9))
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, rel := range cfg.rels() {
		row := []string{"omp-ZFP", fmt.Sprintf("%.0e", rel)}
		for range apps {
			row = append(row, "n/a")
		}
		rep.Rows = append(rep.Rows, row)
	}
	// Slab-parallel SZ decompression (3-D apps only).
	zc := szCodec()
	for _, rel := range cfg.rels() {
		row := []string{"omp-SZ", fmt.Sprintf("%.0e", rel)}
		for _, app := range apps {
			if len(app.Fields[0].Dims) < 3 {
				row = append(row, "n/a")
				continue
			}
			var totalBytes, totalSec float64
			for _, f := range app.Fields {
				abs := relToAbs(f.Data, rel)
				slabs := splitSlabs(f.Data, f.Dims, w)
				comps := make([][]byte, len(slabs))
				for i, s := range slabs {
					c, err := zc.compress(s.data, s.dims, abs)
					if err != nil {
						return Report{}, err
					}
					comps[i] = c
				}
				var err error
				sec := cfg.measure(func() {
					var wg sync.WaitGroup
					for i := range comps {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							if _, derr := zc.decompress(comps[i], len(slabs[i].data)); derr != nil {
								err = derr
							}
						}(i)
					}
					wg.Wait()
				})
				if err != nil {
					return Report{}, err
				}
				totalSec += sec
				totalBytes += float64(4 * len(f.Data))
			}
			row = append(row, f2(totalBytes/totalSec/1e9))
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"paper: omp-SZx 2.3-4.6x over omp-SZ; ZFP has no multithread decompressor (n/a)",
		"on a single-CPU host the zsize-enabled parallel decode cannot show wall-clock scaling; see Table 6's note")
	return rep, nil
}
