package telemetry

import (
	"fmt"
	"strings"
)

// histValue is a histogram's value in Snap, in the family's exported unit
// (seconds for the duration families): the count and sum /metrics carries,
// plus the max-exemplar pair ObserveExemplar records, which links the
// worst observation back to its trace.
type histValue struct {
	Count      int64   `json:"count"`
	Sum        float64 `json:"sum"`
	Max        float64 `json:"max,omitempty"`
	MaxTraceID string  `json:"max_trace_id,omitempty"`
}

// Snap returns every series keyed by its /metrics name with labels (e.g.
// `szx_blocks_total{type="constant"}`), plus "enabled". Counter and gauge
// values are int64; a histogram appears once, under its family name, with
// its count, sum and exemplar. This is the expvar "szx" value. Values are
// loaded independently, the usual contract for scrape-style export, but
// never across a concurrent Reset.
func Snap() map[string]any {
	out := map[string]any{"enabled": Enabled()}
	for _, f := range families() {
		for _, s := range f.series {
			if f.typ != "histogram" {
				out[f.name+s.labels] = s.value
				continue
			}
			out[f.name] = histValue{
				Count:      s.hist.Count,
				Sum:        float64(s.hist.Sum) * f.scale,
				Max:        float64(s.hist.Max) * f.scale,
				MaxTraceID: s.hist.MaxTraceID,
			}
		}
	}
	return out
}

// Reset zeroes every metric (the enabled gate is left as-is). It must not
// race with in-flight instrumented calls if exact totals matter. It takes
// the scrape lock's write side, so a concurrent Prometheus scrape or Snap
// sees the metrics either entirely before or entirely after the reset,
// never a torn mix (pinned by TestScrapeDuringReset).
func Reset() {
	scrapeMu.Lock()
	defer scrapeMu.Unlock()
	for _, m := range registry {
		switch {
		case m.c != nil:
			m.c.reset()
		case m.g != nil:
			m.g.reset()
		case m.h != nil:
			m.h.reset()
		case m.b != nil:
			m.b.reset()
		}
	}
	// The kernel dispatch gauges are info-style state, not accumulated
	// traffic; re-assert them so Reset only clears the counters.
	if impl, ok := kernelImpl.Load().(string); ok {
		SetKernelDispatch(impl, KernelDispatchDetail())
	}
	resetClusterNodes()
}

// Report renders the -stats output of cmd/szx and cmd/szxbench: a build
// header, then one line per non-zero series in /metrics order, with
// histograms shown as count and mean (in the family's exported unit).
func Report() string {
	var b strings.Builder
	bi := GetBuildInfo()
	ver := bi.Version
	if bi.VCSRev != "" {
		ver += "@" + bi.VCSRev
	}
	fmt.Fprintf(&b, "szx telemetry (enabled=%v)\n", Enabled())
	fmt.Fprintf(&b, "  build: %s %s, %s, kernels %s\n", bi.Module, ver, bi.GoVersion, bi.Kernels)
	for _, f := range families() {
		if f.name == buildInfoName {
			continue // the header above
		}
		for _, s := range f.series {
			switch {
			case f.typ == "histogram" && s.hist.Count > 0:
				fmt.Fprintf(&b, "  %s count=%d mean=%.4g\n", f.name, s.hist.Count, s.hist.Mean*f.scale)
			case f.typ != "histogram" && s.value != 0:
				fmt.Fprintf(&b, "  %s%s %d\n", f.name, s.labels, s.value)
			}
		}
	}
	return b.String()
}
