package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// wantSeries is one series a populated registry must show on every
// surface: counters and gauges under name+labels, histograms under their
// family name with value as the observation count.
type wantSeries struct {
	name  string
	value int64
	hist  bool
}

const testNode = "10.0.0.7:8642"

// populateRegistry gives every registry series, and one cluster node, a
// distinct non-zero value.
func populateRegistry() []wantSeries {
	Reset()
	var want []wantSeries
	for i, m := range registry {
		v := int64(100 + 7*i)
		switch {
		case m.c != nil:
			m.c.Add(v)
			want = append(want, wantSeries{name: m.name + m.labels, value: v})
		case m.g != nil:
			m.g.Set(v)
			want = append(want, wantSeries{name: m.name + m.labels, value: v})
		case m.h != nil:
			for j := int64(0); j < v; j++ {
				m.h.Observe(j << (i % 24))
			}
			want = append(want, wantSeries{name: m.name, value: v, hist: true})
		case m.b != nil:
			bits := i % (maxBitLen + 1)
			for j := int64(0); j < v; j++ {
				m.b.Observe(bits)
			}
			want = append(want, wantSeries{name: fmt.Sprintf("%s{%s=\"%d\"}", m.name, m.blabel, bits), value: v})
		}
	}
	ClusterNodeRequests(testNode).Add(99)
	return append(want, wantSeries{name: `szx_cluster_node_requests_total{node="` + testNode + `"}`, value: 99})
}

// TestExportSurfacesCoverRegistry pins that /metrics, the expvar "szx" map
// and Report all render every registry series: each carries its distinct
// value under the series name on all three.
func TestExportSurfacesCoverRegistry(t *testing.T) {
	defer Reset()
	want := populateRegistry()
	h := DebugHandler()
	get := func(path string) string {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Body.String()
	}
	page := "\n" + get("/metrics")
	var vars struct {
		Szx map[string]json.RawMessage `json:"szx"`
	}
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	report := Report()

	for _, w := range want {
		promLine, reportLine := fmt.Sprintf("\n%s %d\n", w.name, w.value), fmt.Sprintf("\n  %s %d\n", w.name, w.value)
		if w.hist {
			promLine, reportLine = fmt.Sprintf("\n%s_count %d\n", w.name, w.value), fmt.Sprintf("\n  %s count=%d ", w.name, w.value)
		}
		if !strings.Contains(page, promLine) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(promLine))
		}
		if !strings.Contains(report, reportLine) {
			t.Errorf("Report lacks %q", strings.TrimSpace(reportLine))
		}
		var got int64
		if w.hist {
			var hv struct{ Count int64 }
			_ = json.Unmarshal(vars.Szx[w.name], &hv)
			got = hv.Count
		} else {
			_ = json.Unmarshal(vars.Szx[w.name], &got)
		}
		if got != w.value {
			t.Errorf("expvar szx[%s] = %s, want %d", w.name, vars.Szx[w.name], w.value)
		}
	}
}

// TestResetKeepsClusterNodes pins that Reset zeroes per-node counters in
// place: an eagerly registered node stays on /metrics at 0, and a counter
// a caller holds keeps counting into the exported series.
func TestResetKeepsClusterNodes(t *testing.T) {
	defer Reset()
	const node = "10.0.0.9:8642"
	held := ClusterNodeRequests(node)
	held.Add(5)
	Reset()
	series := `szx_cluster_node_requests_total{node="` + node + `"} `
	scrape := func() string {
		var b bytes.Buffer
		if err := WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if page := scrape(); !strings.Contains(page, series+"0\n") {
		t.Fatalf("after Reset, /metrics lacks %s0", series)
	}
	held.Inc()
	if page := scrape(); !strings.Contains(page, series+"1\n") {
		t.Fatalf("after Inc through the held counter, /metrics lacks %s1", series)
	}
}
