package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	szx "repro"
	"repro/service"
	"repro/service/client"
)

// Service-mode benchmark (-serve): stand up the szxd service in-process on
// a loopback listener, drive it with the real client library at rising
// concurrency, and write a BENCH_SERVE.json snapshot. The point is to
// price the service boundary: the in-process codec rate is the ceiling,
// the 1-client row shows the per-request HTTP tax, the 8-client row shows
// concurrency recovering it, and the 64-client row — deliberately run
// against a small admission window — shows the server shedding load with
// 429s instead of collapsing.

type serveLevel struct {
	Clients  int     `json:"clients"`
	Requests int64   `json:"requests"`
	Rejected int64   `json:"rejected"`
	MBs      float64 `json:"mb_s"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// smallLevel is one row of the small-payload sweep: arrays of SizeBytes
// pushed either one per request ("oneshot") or 64 per request ("batch64").
// ArraysSec is the headline — arrays compressed per second, which for
// one-shot mode equals requests per second. Latency percentiles are per
// HTTP request, so a batch row's p50 covers all 64 arrays it carries.
type smallLevel struct {
	SizeBytes int     `json:"size_bytes"`
	Mode      string  `json:"mode"`
	ArraysSec float64 `json:"arrays_per_s"`
	MBs       float64 `json:"mb_s"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

type serveReport struct {
	Date         string       `json:"date"`
	Goos         string       `json:"goos"`
	Goarch       string       `json:"goarch"`
	CPU          string       `json:"cpu"`
	Gomaxprocs   int          `json:"gomaxprocs"`
	Note         string       `json:"note"`
	Commands     []string     `json:"commands"`
	InProcessMBs float64      `json:"inprocess_mb_s"`
	Levels       []serveLevel `json:"levels"`
	Small        []smallLevel `json:"small_levels"`
}

func runServe(outPath string, benchtime time.Duration) error {
	// 8 MiB per request: large enough that a handler spans several
	// scheduler slices even on one core, so concurrent requests genuinely
	// overlap inside the admission window instead of self-serializing.
	data := hotpathData(2 << 20)
	rawBytes := int64(4 * len(data))
	opt := szx.Options{ErrorBound: 1e-3}

	// In-process ceiling: the same payload through a pooled Codec handle.
	codec := szx.NewCodec[float32](opt)
	inproc := measureRate(func() error {
		_, err := codec.Compress(data)
		return err
	}, rawBytes)

	// A deliberately small admission window relative to the 64-client
	// level, so the top row demonstrates load shedding: with MaxInFlight
	// = GOMAXPROCS and a queue twice that size, 64 clients oversubscribe
	// the server several times over.
	maxInFlight := runtime.GOMAXPROCS(0)
	srv := service.New(service.Config{
		MaxInFlight: maxInFlight,
		MaxQueue:    2 * maxInFlight,
		QueueWait:   250 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	rep := serveReport{
		Date:         time.Now().Format("2006-01-02"),
		Goos:         runtime.GOOS,
		Goarch:       runtime.GOARCH,
		CPU:          cpuModel(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		InProcessMBs: math.Round(inproc/1e6*100) / 100,
		Note: fmt.Sprintf("szxd service benchmark: 8 MiB float32 compress requests (bound 1e-3) "+
			"against an in-process loopback server with MaxInFlight=%d, MaxQueue=%d, "+
			"QueueWait=250ms, driven by the service/client library. inprocess_mb_s is the "+
			"same payload on a pooled Codec without the HTTP hop — the ceiling. Rejected "+
			"counts are 429s from admission control; at 64 clients the server is "+
			"oversubscribed on purpose to show load shedding instead of collapse. "+
			"small_levels sweeps 4-256 KiB arrays with one client, one array per request "+
			"(oneshot) vs 64 per /v1/batch request (batch64); arrays_per_s is the headline "+
			"and latency percentiles are per HTTP request.",
			maxInFlight, 2*maxInFlight),
		Commands: []string{
			fmt.Sprintf("go run ./cmd/szxbench -serve BENCH_SERVE.json -benchtime %s", benchtime),
			"scripts/bench_ab.sh <baseline-ref>",
		},
	}

	for _, clients := range []int{1, 8, 64} {
		fmt.Fprintf(os.Stderr, "serve: %d client(s)...\n", clients)
		lvl, err := runServeLevel(base, data, clients, benchtime, rawBytes)
		if err != nil {
			return fmt.Errorf("level %d: %w", clients, err)
		}
		rep.Levels = append(rep.Levels, lvl)
	}

	// Small-payload sweep: the batch endpoint's reason to exist. One client,
	// 4 KiB through 256 KiB arrays, one array per request vs 64 per request
	// — the arrays/s ratio between the two modes is the service/in-process
	// gap the batch path closes. The two modes alternate inside each size's
	// window so machine noise (GC, CPU steal on shared boxes) lands on both
	// sides of the ratio equally.
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		fmt.Fprintf(os.Stderr, "serve: small %d KiB oneshot vs batch64...\n", size>>10)
		one, b64, err := runSmallPair(base, size, benchtime)
		if err != nil {
			return fmt.Errorf("small %d: %w", size, err)
		}
		rep.Small = append(rep.Small, one, b64)
	}

	var sb strings.Builder
	jenc := json.NewEncoder(&sb)
	jenc.SetIndent("", "  ")
	if err := jenc.Encode(rep); err != nil {
		return err
	}
	if outPath == "-" {
		fmt.Print(sb.String())
		return nil
	}
	return os.WriteFile(outPath, []byte(sb.String()), 0o644)
}

// runSmallPair measures one small-payload size in both modes — one array
// per request and 64 per request — alternating between them in short
// chunks across the whole window, single client.
func runSmallPair(base string, sizeBytes int, benchtime time.Duration) (one, b64 smallLevel, err error) {
	vals := hotpathData(sizeBytes / 4)
	arrays := make([][]float32, 64)
	for i := range arrays {
		arrays[i] = vals
	}
	c := client.New(base)
	ctx := context.Background()
	p := client.Params{ErrorBound: 1e-3}

	doOne := func() error {
		_, err := c.Compress(ctx, vals, p)
		return err
	}
	doBatch := func() error {
		res, err := c.CompressBatch(ctx, arrays, p)
		if err != nil {
			return err
		}
		for i := range res {
			if res[i].Err != nil {
				return res[i].Err
			}
		}
		return nil
	}

	// Clear the previous level's garbage (the shed level in particular
	// leaves a lot) so this row doesn't pay another row's GC bill, then
	// warm connections and pools in both modes.
	runtime.GC()
	if err := doOne(); err != nil {
		return one, b64, err
	}
	if err := doBatch(); err != nil {
		return one, b64, err
	}

	type acc struct {
		lats    []time.Duration
		elapsed time.Duration
	}
	var oneAcc, b64Acc acc
	run := func(a *acc, do func() error, dur time.Duration) error {
		deadline := time.Now().Add(dur)
		start := time.Now()
		for time.Now().Before(deadline) {
			t0 := time.Now()
			if err := do(); err != nil {
				return err
			}
			a.lats = append(a.lats, time.Since(t0))
		}
		a.elapsed += time.Since(start)
		return nil
	}
	// Many short alternating chunks rather than a few long ones: on shared
	// boxes, interference arrives in bursts that can swallow a whole chunk,
	// and finer interleaving spreads a burst across both modes instead of
	// letting it condemn one.
	const rounds = 8
	chunk := benchtime / (2 * rounds)
	for r := 0; r < rounds; r++ {
		if err := run(&oneAcc, doOne, chunk); err != nil {
			return one, b64, err
		}
		if err := run(&b64Acc, doBatch, chunk); err != nil {
			return one, b64, err
		}
	}

	level := func(a acc, mode string, perReq int) smallLevel {
		sort.Slice(a.lats, func(i, j int) bool { return a.lats[i] < a.lats[j] })
		pct := func(p float64) float64 {
			if len(a.lats) == 0 {
				return 0
			}
			return float64(a.lats[int(p*float64(len(a.lats)-1))].Microseconds()) / 1e3
		}
		totalArrays := float64(len(a.lats) * perReq)
		return smallLevel{
			SizeBytes: sizeBytes,
			Mode:      mode,
			ArraysSec: math.Round(totalArrays/a.elapsed.Seconds()*10) / 10,
			MBs:       math.Round(totalArrays*float64(sizeBytes)/a.elapsed.Seconds()/1e6*100) / 100,
			P50Ms:     math.Round(pct(0.50)*1000) / 1000,
			P99Ms:     math.Round(pct(0.99)*1000) / 1000,
		}
	}
	return level(oneAcc, "oneshot", 1), level(b64Acc, "batch64", 64), nil
}

func runServeLevel(base string, data []float32, clients int, benchtime time.Duration, rawBytes int64) (serveLevel, error) {
	c := client.New(base)
	ctx := context.Background()

	// Warm the connection pool and the server's scratch pool.
	if _, err := c.Compress(ctx, data, client.Params{ErrorBound: 1e-3}); err != nil {
		return serveLevel{}, err
	}

	var (
		mu        sync.Mutex
		lats      []time.Duration
		requests  int64
		rejected  int64
		firstErr  error
		wg        sync.WaitGroup
		deadline  = time.Now().Add(benchtime)
		startWall = time.Now()
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var myLats []time.Duration
			var myReqs, myRej int64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := c.Compress(ctx, data, client.Params{ErrorBound: 1e-3})
				if err != nil {
					var se *client.Error
					if errors.As(err, &se) && se.Retryable() {
						myRej++
						// Back off briefly; hammering a shedding server
						// just measures the rejection path.
						time.Sleep(2 * time.Millisecond)
						continue
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				myLats = append(myLats, time.Since(t0))
				myReqs++
			}
			mu.Lock()
			lats = append(lats, myLats...)
			requests += myReqs
			rejected += myRej
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(startWall)
	if firstErr != nil {
		return serveLevel{}, firstErr
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx].Microseconds()) / 1e3
	}
	mbs := float64(requests) * float64(rawBytes) / elapsed.Seconds() / 1e6
	return serveLevel{
		Clients:  clients,
		Requests: requests,
		Rejected: rejected,
		MBs:      math.Round(mbs*100) / 100,
		P50Ms:    math.Round(pct(0.50)*100) / 100,
		P99Ms:    math.Round(pct(0.99)*100) / 100,
	}, nil
}

// measureRate times fn over enough repetitions to cover ~300ms and returns
// the observed bytes/sec.
func measureRate(fn func() error, nBytes int64) float64 {
	// Warm up once so one-time allocations don't skew the rate.
	_ = fn()
	var reps int
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		_ = fn()
		reps++
	}
	elapsed := time.Since(start)
	if reps == 0 || elapsed <= 0 {
		return 1e9
	}
	return float64(nBytes) * float64(reps) / elapsed.Seconds()
}
