package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	szx "repro"
)

// fingerprint identifies the host and the inputs a result was measured
// on. Results are comparable only when every host field matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
	RAMBytes   int64  `json:"ram_bytes"`
	GoVersion  string `json:"go"`
	Kernels    string `json:"kernels"`

	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	DistinctBytes int64  `json:"distinct_bytes"`
	TotalBytes    int64  `json:"total_bytes"`
}

// host returns the host part only: what must match for two results to be
// compared.
func (f fingerprint) host() fingerprint {
	return fingerprint{CPU: f.CPU, NProc: f.NProc, GOMAXPROCS: f.GOMAXPROCS, LLCBytes: f.LLCBytes,
		RAMBytes: f.RAMBytes, GoVersion: f.GoVersion, Kernels: f.Kernels}
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes:   llcBytes(),
		RAMBytes:   memInfoKiB("MemTotal") << 10,
		GoVersion:  runtime.Version(),
		Kernels:    szx.ActiveKernels(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// llcBytes is the size of the highest-level cache of CPU 0 as sysfs reports
// it, or 0 when unknown.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		if b := parseSize(strings.TrimSpace(string(sz))); level > bestLevel && b > 0 {
			best, bestLevel = b, level
		}
	}
	return best
}

// parseSize reads sysfs sizes such as "32K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// memInfoKiB reads one field of /proc/meminfo (kB).
func memInfoKiB(key string) int64 { return procKiB("/proc/meminfo", key) }

// peakRSSMiB is this process's peak resident set (VmHWM).
func peakRSSMiB() float64 { return float64(procKiB("/proc/self/status", "VmHWM")) / 1024 }

func procKiB(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		n, _ := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		return n
	}
	return 0
}

// saved is one run's output as read back by compare.
type saved struct {
	path   string
	fp     fingerprint
	counts map[string]int64
	res    result
}

func readSaved(path string) (saved, error) {
	s := saved{path: path}
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	for _, ln := range lines {
		if v, ok := strings.CutPrefix(ln, "# fingerprint "); ok {
			if err := json.Unmarshal([]byte(v), &s.fp); err != nil {
				return s, fmt.Errorf("%s: fingerprint: %v", path, err)
			}
		}
		if v, ok := strings.CutPrefix(ln, "# counts "); ok {
			if err := json.Unmarshal([]byte(v), &s.counts); err != nil {
				return s, fmt.Errorf("%s: counts: %v", path, err)
			}
		}
	}
	if s.fp.CPU == "" {
		return s, fmt.Errorf("%s: no fingerprint line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return s, fmt.Errorf("%s: result line: %v", path, err)
	}
	return s, nil
}

// compareMain compares saved outputs of runs (files holding a run's
// standard output). It refuses to compare results whose host fingerprints
// differ, reports counts that should repeat but drift between runs of the
// same workload and seed, and prints each metric's median and spread.
func compareMain(paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OUT OUT...")
		return 2
	}
	var runs []saved
	for _, p := range paths {
		s, err := readSaved(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		runs = append(runs, s)
	}
	code := 0
	for _, s := range runs[1:] {
		if s.fp.host() != runs[0].fp.host() {
			a, _ := json.Marshal(runs[0].fp.host())
			b, _ := json.Marshal(s.fp.host())
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %s was measured on another host\n  %s\n  %s\n", s.path, a, b)
			return 3
		}
		if s.fp.Workload != runs[0].fp.Workload {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %s is workload %s, not %s\n", s.path, s.fp.Workload, runs[0].fp.Workload)
			return 3
		}
	}
	bySeed := map[int64]saved{}
	for _, s := range runs {
		prev, ok := bySeed[s.fp.Seed]
		if !ok {
			bySeed[s.fp.Seed] = s
			continue
		}
		for k, v := range prev.counts {
			if s.counts[k] != v {
				fmt.Printf("benchmark defect: count %s drifts between %s (%d) and %s (%d)\n", k, prev.path, v, s.path, s.counts[k])
				code = 4
			}
		}
	}
	names := map[string]bool{}
	for _, s := range runs {
		for k := range s.res.Metrics {
			names[k] = true
		}
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		var xs []float64
		for _, s := range runs {
			if m, ok := s.res.Metrics[k]; ok {
				xs = append(xs, m.Value)
			}
		}
		q := quartiles(xs)
		fmt.Printf("%-40s n=%d median=%.6g q1=%.6g q3=%.6g spread=%.4f\n", k, len(xs), median(xs), q[0], q[2], spread(xs))
	}
	return code
}
