package szx

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/telemetry"
)

// expositionSample matches one Prometheus 0.0.4 text-format sample line.
var expositionSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf)?$`)

// checkExposition validates one /metrics page: every sample line matches
// the exposition grammar, and every histogram is self-consistent — its
// cumulative buckets never decrease, never exceed +Inf, and +Inf equals
// _count. A torn histogram is exactly what Prometheus rejects.
func checkExposition(page string) error {
	cum := map[string]int64{} // family -> last cumulative bucket
	inf := map[string]int64{} // family -> +Inf bucket
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionSample.MatchString(line) {
			return fmt.Errorf("line fails exposition grammar: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		n, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue // a float sample (_sum)
		}
		switch {
		case strings.Contains(name, `_bucket{le="+Inf"}`):
			fam := name[:strings.Index(name, "_bucket{")]
			if n < cum[fam] {
				return fmt.Errorf("%s: cumulative bucket %d above +Inf %d", fam, cum[fam], n)
			}
			inf[fam] = n
		case strings.Contains(name, "_bucket{"):
			fam := name[:strings.Index(name, "_bucket{")]
			if n < cum[fam] {
				return fmt.Errorf("%s: cumulative buckets decrease at %q", fam, line)
			}
			cum[fam] = n
		case strings.HasSuffix(name, "_count"):
			fam := strings.TrimSuffix(name, "_count")
			if i, ok := inf[fam]; ok && i != n {
				return fmt.Errorf("%s: +Inf bucket %d != _count %d", fam, i, n)
			}
		}
	}
	return nil
}

// underLoad runs load in a loop on two goroutines while scrape runs, then
// stops the load and waits for it.
func underLoad(load func(g int), scrape func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					load(g)
				}
			}
		}()
	}
	scrape()
}

func get(h http.Handler, path string) string {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr.Body.String()
}

// TestTelemetryScrapeUnderLoad runs real codec load with telemetry enabled
// and scrapes /metrics and /debug/vars through DebugHandler while it runs:
// every page must parse, carry the block and engine families, and the
// expvar page must hold the "szx" series map.
func TestTelemetryScrapeUnderLoad(t *testing.T) {
	telemetry.Reset()
	telemetry.Enable()
	defer func() {
		telemetry.Disable()
		telemetry.Reset()
	}()
	data := testField(1<<14, 5)
	h := telemetry.DebugHandler()
	var errs []error
	var page string
	var loadErr sync.Once
	underLoad(func(int) {
		comp, err := Compress(data, Options{ErrorBound: 1e-3})
		if err == nil {
			_, err = Decompress(comp)
		}
		if err != nil {
			loadErr.Do(func() { t.Errorf("codec load: %v", err) })
		}
	}, func() {
		for i := 0; i < 200 || telemetry.CompressCalls.Load() == 0; i++ {
			page = get(h, "/metrics")
			if err := checkExposition(page); err != nil {
				errs = append(errs, fmt.Errorf("scrape %d: %w", i, err))
			}
			var vars struct {
				Szx map[string]any `json:"szx"`
			}
			if err := json.Unmarshal([]byte(get(h, "/debug/vars")), &vars); err != nil || vars.Szx == nil {
				errs = append(errs, fmt.Errorf("scrape %d: /debug/vars has no szx map (%v)", i, err))
			}
		}
	})
	for _, err := range errs {
		t.Error(err)
	}
	if !regexp.MustCompile(`(?m)^szx_blocks_total\{type="nonconstant"\} [1-9]`).MatchString(page) {
		t.Error(`page lacks a non-zero szx_blocks_total{type="nonconstant"}`)
	}
	if !strings.Contains(page, "\n"+`szx_engine_selected_total{op="compress",`) {
		t.Error(`page lacks szx_engine_selected_total{op="compress",…}`)
	}
}

// TestScrapedHistogramsNotTorn takes pages while two goroutines Observe
// into one histogram. A page must never show an observation's bucket
// without its share of +Inf and _count, so the read derives both from the
// buckets it loaded. The Observe loop makes no calls, so preemption can
// park an observer between its atomic adds while pages are taken.
func TestScrapedHistogramsNotTorn(t *testing.T) {
	telemetry.Reset()
	defer telemetry.Reset()
	var errs []error
	underLoad(func(g int) {
		for v := int64(g); v < 1<<18; v++ {
			telemetry.CompressDurations.Observe(v)
		}
	}, func() {
		for i := 0; i < 3000; i++ {
			var b strings.Builder
			_ = telemetry.WritePrometheus(&b) // a strings.Builder never fails
			if err := checkExposition(b.String()); err != nil {
				errs = append(errs, fmt.Errorf("page %d: %w", i, err))
			}
		}
	})
	if len(errs) > 0 {
		t.Fatalf("%d of 3000 pages torn; first: %v", len(errs), errs[0])
	}
}
