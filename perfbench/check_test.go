package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	szx "repro"
	"repro/service"
	"repro/service/client"
)

func wave(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(math.Sin(float64(i)/50) * 10)
	}
	return v
}

func TestChecksFireOnCorruptedOutputs(t *testing.T) {
	v := wave(1 << 14)
	e := absBound(v)
	comp, err := szx.CompressInto(nil, v, absOpt(e))
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{}
	if !chk.sameBytes("clean", comp, comp) || chk.failed != 0 {
		t.Fatal("identical artifacts reported as different")
	}
	bad := append([]byte(nil), comp...)
	bad[len(bad)/2] ^= 0x40
	if chk.sameBytes("corrupt", bad, comp) || chk.failed != 1 {
		t.Fatalf("corrupted artifact passed the byte check (failed=%d)", chk.failed)
	}
	got, err := szx.DecompressInto[float32](nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !withinBound(chk, "clean", v, got, e) || chk.failed != 1 {
		t.Fatal("restored values within the bound reported as failing")
	}
	got[77] += float32(3 * e)
	if withinBound(chk, "perturbed", v, got, e) || chk.failed != 2 {
		t.Fatalf("value outside the bound passed (failed=%d)", chk.failed)
	}
	if withinBound(chk, "short", v, got[:10], e) || chk.failed != 3 {
		t.Fatal("a short restore passed")
	}
}

func TestDumpPassCountsAWrongStream(t *testing.T) {
	v := wave(1 << 16)
	src := dumpSource{name: "wave", d32: v, bound: absBound(v)}
	ref, err := szx.CompressInto(nil, v, dumpOpt)
	if err != nil {
		t.Fatal(err)
	}
	src.ref = append([]byte(nil), ref...)
	src.ref[len(src.ref)-1] ^= 1
	s := &snapshot{sources: []dumpSource{src}, fields: []dumpField{{src: 0, d32: v}}, maxN: len(v)}
	r := &run{chk: &checker{}, workers: 2}
	dumpPass(r, s, nil, nil, nil, nil)
	if r.chk.failed != 1 || r.chk.attempted != 2 {
		t.Fatalf("failed=%d attempted=%d, want the parallel stream's mismatch counted once of 2", r.chk.failed, r.chk.attempted)
	}
}

// corrupting flips one byte in the middle of every response body: the top
// byte of a float32 for raw values.
type corrupting struct{ h http.Handler }

func (c corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[len(body)/2&^3+3] ^= 0x7f
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestServeChecksFireOnCorruptedResponses(t *testing.T) {
	v := wave(4 << 10)
	e := absBound(v)
	comp, err := szx.CompressInto(nil, v, absOpt(e))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{})
	for _, c := range []struct {
		h    http.Handler
		fail bool
	}{{svc.Handler(), false}, {corrupting{svc.Handler()}, true}} {
		ts := httptest.NewServer(c.h)
		cl := client.New(ts.URL)
		for _, kind := range []reqKind{oneShotCompress, oneShotDecompress} {
			chk := &checker{}
			rq := &request{kind: kind, class: classSmall, bound: e, vals: v, comp: comp}
			ok := do(context.Background(), chk, cl, rq)
			if ok == c.fail || (chk.failed == 1) != c.fail {
				t.Errorf("kind %d corrupted=%v: ok=%v failed=%d", kind, c.fail, ok, chk.failed)
			}
		}
		ts.Close()
	}
}
