package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	szx "repro"
	"repro/service"
	"repro/service/client"
	"repro/telemetry"
)

// The serve workload drives szxd's handler (service.New with the default
// Config) on a loopback listener through service/client, run as an
// operator runs it for observability: codec telemetry on (szxd
// -codec-stats) and request tracing on (the default). Load is an open loop
// of seeded Poisson arrivals over at most nproc connections; latency is
// timed from each request's due time. The mix by request count is ~80%
// small one-shots (4-64 KiB), ~10% batches (16-64 arrays of 4-16 KiB) and
// ~10% large requests (1-8 MiB one-shots, one in five an SZXS stream), each
// class half compress and half decompress.

const (
	classSmall = iota
	classBatch
	classLarge
	nClasses
)

var classNames = [nClasses]string{"small", "batch", "large"}

// p99LimitMs is the latency limit max_rps must meet on the p99 over all
// requests of the mix (failed requests count as missing it).
const p99LimitMs = 100

type reqKind int

const (
	oneShotCompress reqKind = iota
	oneShotDecompress
	batchCompress
	batchDecompress
	streamCompress
	streamDecompress
)

// request is one distinct payload with everything needed to check the
// service's answer.
type request struct {
	kind   reqKind
	class  int
	bound  float64
	vals   []float32   // one-shot and stream payload values
	arrays [][]float32 // batch payload values
	comp   []byte      // one-shot stream: the request (decompress) or expected response (compress)
	comps  [][]byte    // batch streams, likewise
	szxs   []byte      // serial Writer container: request or expected response
	bytes  int         // uncompressed bytes
}

// servePool holds the distinct requests of the mix, by class.
type servePool struct {
	fields  []field
	classes [nClasses][]*request
	bytes   int64
}

var serveApps = []appScale{{"scale", 4}}

// buildPool cuts the seed's fields into the mix's distinct requests and
// computes every reference with the in-process codec.
func buildPool(seed int64) (*servePool, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &servePool{}
	for _, f := range genFields(seed, serveApps...) {
		// QC is mostly zeros with seeded plumes: whether a slice lands on a
		// plume swung the mix's codec cost, and so its latency tail, by
		// seed more than any change under test would.
		if !strings.HasSuffix(f.name, "/QC") {
			p.fields = append(p.fields, f)
		}
	}
	// Requests take their fields in turn, so every seed has the same field
	// mix (and so nearly the same ratio and codec cost); the offsets and
	// sizes vary with the seed.
	next := 0
	nextField := func() field {
		next++
		return p.fields[next%len(p.fields)]
	}
	slice := func(n int) ([]float32, float64) {
		f := nextField()
		off := rng.Intn(len(f.data) - n + 1)
		return f.data[off : off+n], f.bound
	}
	add := func(class int, kind reqKind, rq *request) error {
		rq.class, rq.kind = class, kind
		opt := absOpt(rq.bound)
		var err error
		switch kind {
		case oneShotCompress, oneShotDecompress:
			rq.comp, err = szx.CompressInto(nil, rq.vals, opt)
			rq.bytes = 4 * len(rq.vals)
		case batchCompress, batchDecompress:
			for _, a := range rq.arrays {
				c, cerr := szx.CompressInto(nil, a, opt)
				if cerr != nil {
					return cerr
				}
				rq.comps = append(rq.comps, c)
				rq.bytes += 4 * len(a)
			}
		case streamCompress, streamDecompress:
			var buf bytes.Buffer
			w := szx.NewWriter(&buf, opt, szx.DefaultChunkValues)
			if err = w.Write(rq.vals); err == nil {
				err = w.Close()
			}
			rq.szxs = buf.Bytes()
			rq.bytes = 4 * len(rq.vals)
		}
		p.classes[class] = append(p.classes[class], rq)
		p.bytes += int64(rq.bytes)
		return err
	}
	for i, n := range stratified(rng, 64, 1<<10, 16<<10) {
		v, b := slice(n)
		if err := add(classSmall, oneShotCompress+reqKind(i%2), &request{vals: v, bound: b}); err != nil {
			return nil, err
		}
	}
	for i, n := range stratified(rng, 16, 16, 64) {
		f := nextField()
		rq := &request{bound: f.bound}
		for _, m := range stratified(rng, n, 1<<10, 4<<10) {
			off := rng.Intn(len(f.data) - m + 1)
			rq.arrays = append(rq.arrays, f.data[off:off+m])
		}
		if err := add(classBatch, batchCompress+reqKind(i%2), rq); err != nil {
			return nil, err
		}
	}
	kinds := []reqKind{oneShotCompress, oneShotDecompress, oneShotCompress, oneShotDecompress, streamCompress,
		oneShotCompress, oneShotDecompress, oneShotCompress, oneShotDecompress, streamDecompress}
	for i, n := range stratified(rng, 20, 256<<10, 2<<20) {
		v, b := slice(n)
		if err := add(classLarge, kinds[i%len(kinds)], &request{vals: v, bound: b}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// server is one szxd handler on a loopback listener with its client.
type server struct {
	svc  *service.Server
	hs   *http.Server
	ln   net.Listener
	done chan struct{}
	cl   *client.Client
	tr   *http.Transport
}

func paramsFor(bound float64) client.Params { return client.Params{ErrorBound: bound} }

func startServer(cfg service.Config, conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(cfg), ln: ln, done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() { s.hs.Serve(ln); close(s.done) }()
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	s.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: s.tr}))
	return s, nil
}

func (s *server) close() {
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// do sends rq through the client and checks the answer: compress responses
// byte-for-byte against the in-process codec, restored values against the
// bound. It returns false on any failure, counting it.
func do(ctx context.Context, chk *checker, cl *client.Client, rq *request) bool {
	p := client.Params{ErrorBound: rq.bound}
	if rq.class == classLarge {
		p.Workers = -1
	}
	what := classNames[rq.class]
	switch rq.kind {
	case oneShotCompress:
		got, err := cl.Compress(ctx, rq.vals, p)
		return !chk.err(what+" compress", err) && chk.sameBytes(what+" compress response", got, rq.comp)
	case oneShotDecompress:
		got, err := cl.Decompress(ctx, rq.comp)
		return !chk.err(what+" decompress", err) && withinBound(chk, what+" decompress response", rq.vals, got, rq.bound)
	case batchCompress:
		res, err := cl.CompressBatch(ctx, rq.arrays, p)
		if chk.err("batch compress", err) {
			return false
		}
		for i, r := range res {
			if chk.err("batch compress item", r.Err) || !chk.sameBytes("batch compress item", r.Comp, rq.comps[i]) {
				return false
			}
		}
		return true
	case batchDecompress:
		res, err := cl.DecompressBatch(ctx, rq.comps, client.Params{})
		if chk.err("batch decompress", err) {
			return false
		}
		for i, r := range res {
			if chk.err("batch decompress item", r.Err) || !withinBound(chk, "batch decompress item", rq.arrays[i], r.Values, rq.bound) {
				return false
			}
		}
		return true
	case streamCompress:
		rc, err := cl.StreamCompress(ctx, bytes.NewReader(byteView(rq.vals)), client.Params{ErrorBound: rq.bound})
		if chk.err("stream compress", err) {
			return false
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		return !chk.err("stream compress body", err) && chk.sameBytes("SZXS stream response", got, rq.szxs)
	case streamDecompress:
		rc, err := cl.StreamDecompress(ctx, bytes.NewReader(rq.szxs))
		if chk.err("stream decompress", err) {
			return false
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if chk.err("stream decompress body", err) {
			return false
		}
		if len(got)%4 != 0 {
			chk.fail("stream decompress: %d bytes is not whole float32s", len(got))
			return false
		}
		return withinBound(chk, "stream decompress response", rq.vals, unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(got))), len(got)/4), rq.bound)
	}
	return false
}

// schedule is one open-loop trial: when each request is due and which it is.
type schedule struct {
	due []time.Duration
	req []*request
}

// newSchedule draws n Poisson arrivals at rate and a request for each: 80%
// small, 10% batch, 10% large by count.
//
// The mix is balanced rather than drawn independently: every ten requests
// hold exactly eight small, one batch and one large in seeded order, and
// each class cycles through its distinct payloads in a seeded order. A
// trial's class shares and payload counts then do not vary with the seed,
// only the arrival times and orders do.
func newSchedule(rng *rand.Rand, p *servePool, rate float64, n int) schedule {
	s := schedule{due: make([]time.Duration, n), req: make([]*request, n)}
	var order [nClasses][]int
	var used [nClasses]int
	for c := range order {
		order[c] = rng.Perm(len(p.classes[c]))
	}
	block := []int{classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classBatch, classLarge}
	t := 0.0
	for i := range n {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		t += rng.ExpFloat64() / rate
		s.due[i] = time.Duration(t * float64(time.Second))
		c := block[i%len(block)]
		s.req[i] = p.classes[c][order[c][used[c]%len(order[c])]]
		used[c]++
	}
	return s
}

// outcome is one request's timing, relative to the trial's start.
type outcome struct {
	due, start, end time.Duration
	class           int
	ok              bool
}

// openLoop sends the schedule over conns workers, each taking the next due
// request in order and waiting for its due time if early. send reports
// success.
func openLoop(s schedule, conns int, send func(i int) bool) []outcome {
	out := make([]outcome, len(s.due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.due) {
					return
				}
				if d := s.due[i] - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				o := outcome{due: s.due[i], start: time.Since(t0)}
				if s.req != nil {
					o.class = s.req[i].class
				}
				o.ok = send(i)
				o.end = time.Since(t0)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// trial summarizes one open-loop run.
type trial struct {
	n, failed  int
	lat        [nClasses + 1][]float64 // sorted, per class and all requests last; failures are +Inf
	inOrder    []float64               // all requests' latencies in schedule order
	lagMs      []float64
	backlogMax int
}

func summarizeTrial(out []outcome) trial {
	t := trial{n: len(out)}
	for i, o := range out {
		l := ms(dueLatency(o.due, o.end))
		if !o.ok {
			t.failed++
			l = math.Inf(1)
		}
		t.lat[o.class] = append(t.lat[o.class], l)
		t.lat[nClasses] = append(t.lat[nClasses], l)
		t.inOrder = append(t.inOrder, l)
		t.lagMs = append(t.lagMs, ms(o.start-o.due))
		// Requests already due when this one started but not yet started.
		due := sort.Search(len(out), func(j int) bool { return out[j].due > o.start })
		t.backlogMax = max(t.backlogMax, due-i-1)
	}
	for i := range t.lat {
		sort.Float64s(t.lat[i])
	}
	return t
}

// passes reports whether the trial meets the p99 limit over all requests
// without a growing backlog.
func (t trial) passes() bool {
	p99, _ := percentile(t.lat[nClasses], 99)
	return p99 <= p99LimitMs && !backlogGrowing(t.lagMs, p99LimitMs)
}

// serveRun is the per-invocation state of the serve workload.
type serveRun struct {
	r    *run
	pool *servePool
	srv  *server
}

// runTrial runs one open-loop trial of at least minN requests lasting about
// d at rate. Its schedule depends only on the seed and stream, so a trial
// replays the same arrivals however earlier trials went.
func (sr *serveRun) runTrial(stream int64, rate float64, d time.Duration, minN int, sp *spans) trial {
	n := max(minN, int(rate*d.Seconds()))
	s := newSchedule(rand.New(rand.NewSource(sr.r.seed<<16^stream)), sr.pool, rate, n)
	sr.r.chk.attempt(n)
	out := openLoop(s, sr.r.workers, func(i int) bool {
		root := sp.root("serve.request")
		var ok bool
		root.call("client."+classNames[s.req[i].class], func() { ok = do(context.Background(), sr.r.chk, sr.srv.cl, s.req[i]) })
		root.end(ref{})
		return ok
	})
	return summarizeTrial(out)
}

// closedLoop sends class-large one-shots of kind back to back on every
// connection, taking the payloads in turn, for three windows of d/3; it
// returns the median window's uncompressed MB/s.
func (sr *serveRun) closedLoop(kind reqKind, d time.Duration) float64 {
	var reqs []*request
	for _, rq := range sr.pool.classes[classLarge] {
		if rq.kind == oneShotCompress || rq.kind == oneShotDecompress {
			cp := *rq
			cp.kind = kind
			reqs = append(reqs, &cp)
		}
	}
	var next atomic.Int64
	var rates []float64
	for range 3 {
		var total atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for range sr.r.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < d/3 {
					rq := reqs[int(next.Add(1)-1)%len(reqs)]
					sr.r.chk.attempt(1)
					if do(context.Background(), sr.r.chk, sr.srv.cl, rq) {
						total.Add(int64(rq.bytes))
					}
				}
			}()
		}
		wg.Wait()
		rates = append(rates, mbs(total.Load(), time.Since(t0)))
	}
	return median(rates)
}

// modeledRate is the fixed offered rate: a little under half of the mix's
// capacity on nproc cores under a per-request cost of fixed overhead plus
// bytes at the service's large-payload speed. It depends on the seed's mix
// only, never on a measurement, so every commit is offered the same load.
// Just under half rather than half: with two connections, queueing behind
// large requests grows fast with load, and at half the tail moved by up to
// a quarter between seeds.
func modeledRate(p *servePool, workers int) float64 {
	// Calibrated on a 2-core Xeon (2.1 GHz class) with the shipped code:
	// 0.5*workers/cost matched about half of the measured max_rps.
	const perReq, bytesPerS = 175e-6, 340e6
	var cost float64
	share := [nClasses]float64{0.8, 0.1, 0.1}
	for c, reqs := range p.classes {
		mean := 0.0
		for _, rq := range reqs {
			mean += perReq + float64(rq.bytes)/bytesPerS
		}
		cost += share[c] * mean / float64(len(reqs))
	}
	return 0.45 * float64(workers) / cost
}

func setupServe(r *run) (*servePool, *server, error) {
	telemetry.Enable()
	p, err := buildPool(r.seed)
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(service.Config{}, r.workers)
	if err != nil {
		return nil, nil, err
	}
	for _, reqs := range p.classes {
		for _, rq := range reqs {
			r.chk.attempt(1)
			do(context.Background(), r.chk, srv.cl, rq)
		}
	}
	return p, srv, nil
}

func runServe(r *run) error {
	var setups []float64
	var pool *servePool
	var srv *server
	for i := 0; i < 3; i++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		var err error
		if pool, srv, err = setupServe(r); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.close()
	for _, f := range pool.fields {
		r.distinctBytes += int64(4 * len(f.data))
	}
	r.totalBytes = pool.bytes
	sr := &serveRun{r: r, pool: pool, srv: srv}
	fixed := modeledRate(pool, r.workers)
	info("serve: %d/%d/%d distinct small/batch/large requests, %.1f MiB of fields, fixed rate %.1f/s, %d connections",
		len(pool.classes[classSmall]), len(pool.classes[classBatch]), len(pool.classes[classLarge]),
		float64(r.distinctBytes)/(1<<20), fixed, r.workers)

	if r.traced {
		return traceServe(sr, fixed)
	}
	phase := func(share float64) time.Duration { return time.Duration(share * r.seconds * float64(time.Second)) }
	sr.runTrial(1, fixed, phase(0.05), 0, nil) // warm-up, not reported
	probe := int64(100)
	best, probes := searchMaxRate(fixed, 4*fixed, 0.05, func(rate float64) bool {
		probe++
		t := sr.runTrial(probe, rate, phase(0.06), 1000, nil)
		p99, _ := percentile(t.lat[nClasses], 99)
		info("max_rps probe %.1f/s: n=%d failed=%d p99 %.2f ms backlog_max %d pass=%v", rate, t.n, t.failed, p99, t.backlogMax, t.passes())
		return t.passes()
	})
	info("max_rps %.1f/s after %d probes (bracket %.1f..%.1f)", best, probes, fixed, 4*fixed)

	t := sr.runTrial(2, fixed, phase(0.45), 1000, nil)
	for c := range nClasses {
		p50, _ := percentile(t.lat[c], 50)
		lvl, tv := tail(t.lat[c])
		info("%s_p50_ms %.4f ms, p%g %.4f ms (n=%d)", classNames[c], p50, lvl, tv, len(t.lat[c]))
	}
	info("fixed-rate trial: rate %.1f/s n=%d failed=%d backlog_max %d", fixed, t.n, t.failed, t.backlogMax)
	// Five consecutive windows of the trial, each long enough for a p99.
	var windows [][]float64
	k := max(1, min(5, t.n/1000))
	for i := range k {
		windows = append(windows, t.inOrder[i*t.n/k:(i+1)*t.n/k])
	}
	setLatency(r, "serve request (all classes, from due time), windows are fifths of the trial", windows)

	r.setE2E("compress_mb_s", sr.closedLoop(oneShotCompress, phase(0.1)), "MB/s")
	r.setE2E("decompress_mb_s", sr.closedLoop(oneShotDecompress, phase(0.1)), "MB/s")
	var in, out int64
	for _, reqs := range pool.classes {
		for _, rq := range reqs {
			if rq.kind == oneShotCompress || rq.kind == batchCompress {
				in += int64(rq.bytes)
				out += int64(len(rq.comp))
				for _, c := range rq.comps {
					out += int64(len(c))
				}
			}
		}
	}
	r.setE2E("ratio", float64(in)/float64(out), "x")
	r.setE2E("max_rps", best, "1/s")
	r.setE2E("setup_s", median(setups), "s")
	return nil
}

// traceServe runs the fixed-rate trial untraced and traced, records the
// load generator's own validity figures and the service's queue wait and
// rejections, then replays the mix's arrays down the ladder.
func traceServe(sr *serveRun, fixed float64) error {
	r := sr.r
	// Untraced and traced trials alternate, each pair on one schedule; the
	// overhead compares their median p50s.
	d := time.Duration(0.1 * r.seconds * float64(time.Second))
	var plain, traced trial
	var p0, p1 []float64
	var windows [][]float64
	for i := range int64(3) {
		plain = sr.runTrial(10+i, fixed, d, 1000, nil)
		traced = sr.runTrial(10+i, fixed, d, 1000, r.sp)
		a, _ := percentile(plain.lat[nClasses], 50)
		b, _ := percentile(traced.lat[nClasses], 50)
		p0, p1 = append(p0, a), append(p1, b)
		windows = append(windows, plain.inOrder)
	}
	setLatency(r, "serve request (all classes, from due time), windows are the untraced trials", windows)
	r.setLayer("bench.trace_overhead_pct", 100*(median(p1)/median(p0)-1), "%")
	r.setLayer("bench.self_pct", 100*r.sp.selfShare(), "%")
	lag := sortedCopy(plain.lagMs)
	lagP99, _ := percentile(lag, 99)
	r.setLayer("loadgen.lag_p99_ms", lagP99, "ms")
	r.setLayer("loadgen.backlog_max", float64(plain.backlogMax), "count")
	r.setLayer("service.rejected_frac", float64(plain.failed+traced.failed)/float64(plain.n+traced.n), "ratio")
	qw, err := scrapeP99(sr.srv.svc.Handler(), "szx_service_queue_wait_seconds")
	if err != nil {
		return err
	}
	r.setLayer("service.queue_wait_p99_ms", 1e3*qw, "ms")
	// Slices of sparse fields can be constant, so the plan replays the
	// absolute bound the requests carry rather than a relative one.
	in := ladderInputs{opt: absOpt, planOpt: absOpt(sr.pool.fields[0].bound), telemetry: true}
	for c, reqs := range sr.pool.classes {
		for _, rq := range reqs {
			if c == classBatch {
				for _, a := range rq.arrays {
					in.a32 = append(in.a32, piece{data: a, bound: rq.bound})
				}
			} else {
				in.a32 = append(in.a32, piece{data: rq.vals, bound: rq.bound})
			}
		}
	}
	return runLadder(r, in)
}

// scrapeP99 reads a Prometheus histogram from the handler's /metrics and
// returns the upper bound of the bucket holding its 99th percentile.
func scrapeP99(h http.Handler, name string) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	type bucket struct{ le, n float64 }
	var bs []bucket
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		ln := sc.Text()
		rest, ok := strings.CutPrefix(ln, name+"_bucket{le=\"")
		if !ok {
			continue
		}
		le, cnt, ok := strings.Cut(rest, "\"} ")
		if !ok {
			continue
		}
		l, err1 := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			l, err1 = math.Inf(1), nil
		}
		n, err2 := strconv.ParseFloat(cnt, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("metrics line %q", ln)
		}
		bs = append(bs, bucket{l, n})
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("metrics: no %s histogram", name)
	}
	total := bs[len(bs)-1].n
	finite := 0.0
	for _, b := range bs {
		if math.IsInf(b.le, 1) {
			break
		}
		finite = b.le
		if b.n >= 0.99*total {
			return b.le, nil
		}
	}
	// The p99 lies beyond the last finite bucket: report that bucket's bound
	// as a floor.
	return finite, nil
}
