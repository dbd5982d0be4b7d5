// Command perfbench is the repository's benchmark: one command runs a named
// workload (dump, frames or serve) from a seed, checks every output, and
// prints every end-to-end metric; with -trace 1 it instead replays the
// workload's own inputs down the layer ladder (kernels, serial core,
// parallel engine, plan, containers, batch, service handler, HTTP client)
// and prints per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload dump --seed 1 --seconds 20 --trace 0
//	perfbench compare a.out b.out   # refuses results from different hosts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload invocation's shared state.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workers  int // codec workers and client connections: nproc

	chk    *checker
	sp     *spans // nil unless traced
	e2e    map[string]metric
	layer  map[string]metric
	counts map[string][]int64 // counts that must repeat exactly, one value per repetition

	distinctBytes, totalBytes int64
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// info prints one human-readable line ahead of the result.
func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// deadline returns when a phase that may use share of the run's seconds
// ends.
func (r *run) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * r.seconds * float64(time.Second)))
}

// repeat records one repetition's value of a count that must not change
// between repetitions (rounds of a workload, repeated layer replays).
func (r *run) repeat(name string, v int64) { r.counts[name] = append(r.counts[name], v) }

// drift reports every count that did not repeat exactly.
func (r *run) drift() []string {
	var out []string
	for k, vs := range r.counts {
		for i, v := range vs[1:] {
			if v != vs[0] {
				out = append(out, fmt.Sprintf("%s: repetition 0 %d, repetition %d %d", k, vs[0], i+1, v))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

var workloads = map[string]func(*run) error{
	"dump":   runDump,
	"frames": runFrames,
	"serve":  runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: dump, frames or serve")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measurement time")
		traced  = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	// On a 2-core host the collector's pacing at the default GOGC was the
	// largest source of pass-to-pass noise in the library workloads (frames
	// passes ranged 222-507 MB/s at GOGC=100, 423-525 at 400), so they
	// collect less often under a soft memory cap. serve keeps the runtime
	// defaults szxd ships with: its allocation rate drove a GOGC=400 heap
	// to the cap, where collection stalls set the tail. The environment
	// overrides both.
	if *name != "serve" {
		if os.Getenv("GOGC") == "" {
			debug.SetGCPercent(400)
		}
		if os.Getenv("GOMEMLIMIT") == "" {
			debug.SetMemoryLimit(2 << 30)
		}
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want dump, frames or serve)\n", *name)
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		workers:  runtime.NumCPU(),
		chk:      &checker{},
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		counts:   map[string][]int64{},
	}
	if r.traced {
		r.sp = newSpans()
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(r.finish())
}

// finish prints the fingerprint, failure and drift report, and the result
// line, and returns the exit code.
func (r *run) finish() int {
	fp := hostFingerprint()
	fp.Workload, fp.Seed = r.workload, r.seed
	fp.DistinctBytes, fp.TotalBytes = r.distinctBytes, r.totalBytes
	b, _ := json.Marshal(fp)
	fmt.Printf("# fingerprint %s\n", b)

	drift := r.drift()
	for _, d := range drift {
		info("benchmark defect: count drift %s", d)
	}
	first := map[string]int64{}
	for k, vs := range r.counts {
		first[k] = vs[0]
	}
	b, _ = json.Marshal(first)
	fmt.Printf("# counts %s\n", b)
	rss := peakRSSMiB()
	ms := r.e2e
	if r.traced {
		ms = r.layer
		r.setLayer("bench.count_drift", float64(len(drift)), "count")
	} else {
		r.setE2E("peak_rss_mib", rss, "MiB")
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.chk.fail("metric %s is not a finite number", k)
			ms[k] = metric{0, m.Unit}
		}
	}
	info("peak_rss_mib %.1f MiB", rss)
	frac := 0.0
	if r.chk.attempted > 0 {
		frac = float64(r.chk.failed) / float64(r.chk.attempted)
	}
	info("fail_frac %.6g (%d failed of %d attempted)", frac, r.chk.failed, r.chk.attempted)
	r.chk.report()
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		info("%-40s %14.6g %s", k, ms[k].Value, ms[k].Unit)
	}
	if r.sp != nil {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		path := fmt.Sprintf("%s/traces/%s-%d.jsonl", dir, r.workload, r.seed)
		if err := r.sp.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			info("spans: %d written to %s", len(r.sp.spans), path)
		}
	}
	res := result{
		Correct:   r.chk.failed == 0,
		Attempted: max(r.chk.attempted, 1),
		Failed:    r.chk.failed,
		Metrics:   ms,
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
