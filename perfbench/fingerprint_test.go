package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeOut saves a run's output as the benchmark prints it.
func writeOut(t *testing.T, dir, name string, fp fingerprint, counts map[string]int64, v float64) string {
	t.Helper()
	f, _ := json.Marshal(fp)
	c, _ := json.Marshal(counts)
	res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"p50_ms": {v, "ms"}}})
	path := filepath.Join(dir, name)
	body := fmt.Sprintf("# fingerprint %s\n# counts %s\n%s\n", f, c, res)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesOtherHostsAndReportsDrift(t *testing.T) {
	dir := t.TempDir()
	host := fingerprint{CPU: "Xeon A", NProc: 2, GOMAXPROCS: 2, LLCBytes: 300 << 20, RAMBytes: 8 << 30, GoVersion: "go1.24.0", Kernels: "avx2", Workload: "dump"}
	other := host
	other.CPU = "Xeon B"
	counts := map[string]int64{"dump.fields": 551}
	seed1, seed2 := host, host
	seed1.Seed, seed2.Seed = 1, 2

	a := writeOut(t, dir, "a", seed1, counts, 1.0)
	b := writeOut(t, dir, "b", seed2, map[string]int64{"dump.fields": 550}, 1.1)
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("same host, different seeds: exit %d, want 0", code)
	}
	c := writeOut(t, dir, "c", seed1, map[string]int64{"dump.fields": 550}, 1.2)
	if code := compareMain([]string{a, c}); code != 4 {
		t.Errorf("a count drifting between runs of one seed: exit %d, want 4", code)
	}
	d := writeOut(t, dir, "d", func() fingerprint { f := other; f.Seed = 1; return f }(), counts, 1.0)
	if code := compareMain([]string{a, d}); code != 3 {
		t.Errorf("different CPU: exit %d, want 3 (refused)", code)
	}
	e := writeOut(t, dir, "e", func() fingerprint { f := seed1; f.Workload = "serve"; return f }(), counts, 1.0)
	if code := compareMain([]string{a, e}); code != 3 {
		t.Errorf("different workload: exit %d, want 3 (refused)", code)
	}
}

func TestParseSize(t *testing.T) {
	for in, want := range map[string]int64{"32K": 32 << 10, "300M": 300 << 20, "1G": 1 << 30, "512": 512, "x": 0} {
		if got := parseSize(in); got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
		}
	}
}
