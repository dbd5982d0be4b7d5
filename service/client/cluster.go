package client

import (
	"context"
	"errors"
	"hash/fnv"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/service/cluster"
	"repro/telemetry"
)

// Policy selects how a ClusterClient orders candidate nodes for a request.
type Policy int

const (
	// PolicyLeastLoaded routes by power-of-two-choices over each node's
	// polled load (queue depth + in-flight) plus this client's own
	// outstanding requests — two random candidates, the less loaded wins.
	// The default: no coordination, near-optimal load spread.
	PolicyLeastLoaded Policy = iota
	// PolicyHash routes by rendezvous (highest-random-weight) hashing on
	// the caller's affinity key (WithAffinityKey). Requests sharing a key
	// land on the same node while it stays routable, so a node's warm
	// buffers and coalescing batches see related traffic.
	PolicyHash
	// PolicyOrdered routes in configured node order: first routable node
	// wins. Gives operators an explicit primary/backup topology.
	PolicyOrdered
)

// ErrNoNodes is returned when a ClusterClient has an empty node list.
var ErrNoNodes = errors.New("szxd cluster: no nodes configured")

// HedgePolicy tunes request hedging: after a latency trigger, an admitted
// request is raced against a second replica and the first response wins
// (the loser is context-cancelled). Hedges are budgeted so a slow fleet
// sees bounded extra load, never a multiplied one.
type HedgePolicy struct {
	// Disabled turns hedging off (the zero policy hedges).
	Disabled bool
	// Delay, when positive, is a fixed hedge trigger — fire the second
	// request this long after the first. Overrides the percentile trigger;
	// mostly for tests and fixed-SLO callers.
	Delay time.Duration
	// Percentile sets the adaptive trigger: hedge when the first request
	// has outlived this fraction of recent successful calls (0 = 0.95).
	// Only latencies of successful calls feed the estimate, so a burst of
	// fast failures cannot drag the trigger toward zero.
	Percentile float64
	// MinDelay and MaxDelay clamp the adaptive trigger (0 = 1ms / 500ms).
	// Until enough samples accumulate the trigger sits at MaxDelay.
	MinDelay time.Duration
	MaxDelay time.Duration
	// Budget is the hedge earn rate: each successful call banks this many
	// hedge credits (0 = 0.1 — at most one hedge per ten successes, plus a
	// small starting bank). A hedge spends one credit; with the bank empty
	// the trigger lapses and the primary runs alone.
	Budget float64
}

func (h HedgePolicy) withDefaults() HedgePolicy {
	if h.Percentile <= 0 || h.Percentile >= 1 {
		h.Percentile = 0.95
	}
	if h.MinDelay <= 0 {
		h.MinDelay = time.Millisecond
	}
	if h.MaxDelay <= 0 {
		h.MaxDelay = 500 * time.Millisecond
	}
	if h.MaxDelay < h.MinDelay {
		h.MaxDelay = h.MinDelay
	}
	if h.Budget <= 0 {
		h.Budget = 0.1
	}
	return h
}

// ClusterConfig configures a ClusterClient. Only Nodes is required.
type ClusterConfig struct {
	// Nodes is the static list of szxd base URLs (or host:port strings).
	Nodes []string
	// Policy orders candidates per request (default PolicyLeastLoaded).
	Policy Policy
	// Hedge tunes second-replica racing; the zero value hedges with
	// defaults, set Hedge.Disabled to turn it off.
	Hedge HedgePolicy
	// Retry caps cross-node retries of shed/failed requests; zero-value
	// fields take RetryPolicy defaults (3 attempts, jittered backoff).
	Retry RetryPolicy
	// RetryBudget is the retry earn rate, like HedgePolicy.Budget but for
	// the retry bank (0 = 0.2). The budget is global across the client: an
	// overloaded fleet shedding every request exhausts it and subsequent
	// failures surface immediately instead of amplifying the overload.
	RetryBudget float64
	// PollInterval is the membership probe cadence (0 = 1s; negative
	// disables background polling — callers then drive
	// Membership().PollOnce themselves, which tests do).
	PollInterval time.Duration
	// HTTPClient overrides the data-plane client shared by all nodes.
	HTTPClient *http.Client
}

// clusterNode pairs one node's single-node Client with this client's
// local view of it.
type clusterNode struct {
	addr        string
	c           *Client
	requests    *telemetry.Counter // szx_cluster_node_requests_total{node=addr}
	outstanding atomic.Int64       // requests this client has in flight there
}

// ClusterClient fans a Client's API out over a fleet of szxd nodes: it
// embeds a cluster.Membership over the node list, routes each request by
// the configured policy around draining/suspect/dead nodes, hedges slow
// requests against a second replica, and retries shed ones elsewhere —
// all under budgets that cap the extra load at a fraction of the
// successful traffic.
type ClusterClient struct {
	policy Policy
	hedge  HedgePolicy
	retry  RetryPolicy

	nodes []*clusterNode
	mem   *cluster.Membership
	lat   latTracker
	hb    creditBank // hedge credits
	rb    creditBank // retry credits
}

// NewCluster builds a ClusterClient over cfg.Nodes and starts membership
// polling (unless cfg.PollInterval is negative). Call Close to stop it.
func NewCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	cc := &ClusterClient{
		policy: cfg.Policy,
		hedge:  cfg.Hedge.withDefaults(),
		retry:  cfg.Retry.withDefaults(),
	}
	seen := make(map[string]bool)
	for _, n := range cfg.Nodes {
		addr := cluster.NormalizeAddr(n)
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		cc.nodes = append(cc.nodes, &clusterNode{
			addr: addr,
			// Per-node clients are retry-free on purpose: the cluster layer
			// retries across nodes, which beats hammering the node that
			// just shed us.
			c:        New(addr, WithHTTPClient(hc)),
			requests: telemetry.ClusterNodeRequests(addr),
		})
	}
	if len(cc.nodes) == 0 {
		return nil, ErrNoNodes
	}
	// Budgets start with a small bank (ten credits) so short runs and cold
	// clients can hedge/retry at all; steady state is governed by the earn
	// rates.
	cc.hb.init(cc.hedge.Budget, 10)
	cc.rb.init(cfg.RetryBudget, 10)
	poll := cfg.PollInterval
	cc.mem = cluster.New(cluster.Config{
		Peers:        cfg.Nodes,
		PollInterval: max(poll, 0),
	})
	if poll >= 0 {
		cc.mem.Start()
	}
	return cc, nil
}

// Close stops membership polling. The client remains usable afterwards
// (it just stops refreshing peer state).
func (cc *ClusterClient) Close() error {
	cc.mem.Stop()
	return nil
}

// Membership exposes the underlying peer tracker (for /debug mounting and
// tests).
func (cc *ClusterClient) Membership() *cluster.Membership { return cc.mem }

// Peers snapshots the current peer views.
func (cc *ClusterClient) Peers() []cluster.PeerView { return cc.mem.Peers() }

// affinityCtxKey carries the caller's routing key in a context.
type affinityCtxKey struct{}

// WithAffinityKey tags ctx with a routing affinity key. Under PolicyHash,
// requests sharing a key route to the same node while it stays healthy.
func WithAffinityKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, affinityCtxKey{}, key)
}

// AffinityKey returns the routing key set by WithAffinityKey, "" if none.
func AffinityKey(ctx context.Context) string {
	key, _ := ctx.Value(affinityCtxKey{}).(string)
	return key
}

// rendezvousWeight scores one (key, node) pair for highest-random-weight
// hashing: FNV-64a over key and address. Each key induces an independent
// pseudo-random permutation of the nodes, so when a node dies only its
// keys move (to their second choice) — the property that makes rendezvous
// hashing rebalance minimally.
func rendezvousWeight(key, addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(addr))
	return h.Sum64()
}

// load is the routing signal for one node: the peer's last-polled queue
// depth + in-flight, plus the requests this client has dispatched there
// since (the poll data is up to an interval stale; local outstanding
// covers the gap).
func (cc *ClusterClient) load(n *clusterNode, v cluster.PeerView, known bool) int {
	l := int(n.outstanding.Load())
	if known {
		l += v.Load
	}
	return l
}

// candidates orders the nodes for one dispatch: routable (alive, not
// draining) nodes first in policy order, then suspects, then the rest —
// so the retry loop walks from best to worst and a fully-dark fleet still
// gets attempted rather than failing without trying.
func (cc *ClusterClient) candidates(key string) []*clusterNode {
	views := cc.mem.Peers()
	vm := make(map[string]cluster.PeerView, len(views))
	for _, v := range views {
		vm[v.Addr] = v
	}
	routable := make([]*clusterNode, 0, len(cc.nodes))
	var suspects, rest []*clusterNode
	for _, n := range cc.nodes {
		v, ok := vm[n.addr]
		switch {
		case ok && v.Routable():
			routable = append(routable, n)
		case ok && v.Suspect():
			suspects = append(suspects, n)
		default:
			rest = append(rest, n)
		}
	}
	switch {
	case len(routable) == 0:
		telemetry.ClusterRoutedFallback.Inc()
	case cc.policy == PolicyHash:
		if key == "" {
			// No affinity requested: a random key per dispatch spreads
			// keyless traffic instead of pinning it all to one node.
			key = strconv.FormatUint(rand.Uint64(), 36)
		}
		sort.Slice(routable, func(i, j int) bool {
			return rendezvousWeight(key, routable[i].addr) > rendezvousWeight(key, routable[j].addr)
		})
		telemetry.ClusterRoutedHash.Inc()
	case cc.policy == PolicyOrdered:
		telemetry.ClusterRoutedOrdered.Inc()
	default: // PolicyLeastLoaded
		if len(routable) > 1 {
			// Power of two choices: sample two distinct candidates, put
			// the less loaded one first. The rest keep their order as the
			// retry/hedge tail.
			i := rand.IntN(len(routable))
			j := rand.IntN(len(routable) - 1)
			if j >= i {
				j++
			}
			if cc.load(routable[j], vm[routable[j].addr], true) < cc.load(routable[i], vm[routable[i].addr], true) {
				i, j = j, i
			}
			routable[0], routable[i] = routable[i], routable[0]
			if j == 0 {
				j = i // j held routable[0]; it moved to slot i
			}
			routable[1], routable[j] = routable[j], routable[1]
		}
		telemetry.ClusterRoutedLeastLoaded.Inc()
	}
	return append(append(routable, suspects...), rest...)
}

// hedgeDelay is the current trigger: the fixed override when set, else
// the clamped latency percentile of recent successful calls.
func (cc *ClusterClient) hedgeDelay() time.Duration {
	if cc.hedge.Delay > 0 {
		return cc.hedge.Delay
	}
	d := cc.lat.quantile(cc.hedge.Percentile)
	if d <= 0 {
		return cc.hedge.MaxDelay
	}
	return min(max(d, cc.hedge.MinDelay), cc.hedge.MaxDelay)
}

// clusterRun executes op against one node, maintaining the local
// outstanding gauge, the per-node request tally, and (on success) the
// latency estimate and earn-side of both budgets.
func clusterRun[T any](cc *ClusterClient, ctx context.Context, n *clusterNode, op func(context.Context, *Client) (T, error)) (T, error) {
	n.outstanding.Add(1)
	defer n.outstanding.Add(-1)
	n.requests.Inc()
	start := time.Now()
	v, err := op(ctx, n.c)
	if err == nil {
		cc.lat.observe(time.Since(start))
		cc.hb.earn()
		cc.rb.earn()
	}
	return v, err
}

// callResult is one node's answer in a hedged race.
type callResult[T any] struct {
	v      T
	err    error
	hedged bool
}

// hedgedCall runs op on primary and, if it outlives the hedge trigger and
// the budget allows, races a second copy on backup. First success wins;
// the loser's context is cancelled immediately so its admission slot and
// socket come back. Both goroutines report into a buffered channel sized
// for both, so an abandoned loser can never leak.
func hedgedCall[T any](cc *ClusterClient, ctx context.Context, primary, backup *clusterNode, op func(context.Context, *Client) (T, error)) (T, error) {
	var zero T
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	ch := make(chan callResult[T], 2)
	go func() {
		v, err := clusterRun(cc, pctx, primary, op)
		ch <- callResult[T]{v: v, err: err}
	}()

	var hedgeC <-chan time.Time
	hctx, hcancel := ctx, context.CancelFunc(func() {})
	if backup != nil && !cc.hedge.Disabled {
		t := time.NewTimer(cc.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
		hctx, hcancel = context.WithCancel(ctx)
	}
	defer hcancel()

	outstanding := 1
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedged {
					telemetry.ClusterHedgesWon.Inc()
				}
				// The deferred cancels chase the loser off its node.
				return r.v, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return zero, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if !cc.hb.take() {
				telemetry.ClusterHedgeBudgetDenied.Inc()
				continue
			}
			telemetry.ClusterHedgesFired.Inc()
			outstanding++
			go func() {
				v, err := clusterRun(cc, hctx, backup, op)
				ch <- callResult[T]{v: v, err: err, hedged: true}
			}()
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// clusterDo is the dispatch spine under every ClusterClient method: order
// the candidates once, then walk them with hedged calls and budgeted
// jittered-backoff retries until success, a non-retryable error, the
// attempt cap, or an exhausted retry budget.
func clusterDo[T any](cc *ClusterClient, ctx context.Context, op func(context.Context, *Client) (T, error)) (T, error) {
	var zero T
	cands := cc.candidates(AffinityKey(ctx))
	for attempt := 1; ; attempt++ {
		primary := cands[(attempt-1)%len(cands)]
		var backup *clusterNode
		if len(cands) > 1 {
			backup = cands[attempt%len(cands)]
		}
		v, err := hedgedCall(cc, ctx, primary, backup, op)
		if err == nil {
			return v, nil
		}
		if attempt >= cc.retry.MaxAttempts || !IsRetryable(err) {
			return zero, err
		}
		if !cc.rb.take() {
			telemetry.ClusterRetryBudgetDenied.Inc()
			return zero, err
		}
		telemetry.ClusterRetries.Inc()
		if sleepRetry(ctx, retryDelay(cc.retry, attempt, retryAfterOf(err))) != nil {
			return zero, err
		}
	}
}

// Compress routes a Compress call across the cluster.
func (cc *ClusterClient) Compress(ctx context.Context, vals []float32, p Params) ([]byte, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]byte, error) {
		return c.Compress(ctx, vals, p)
	})
}

// CompressFloat64 routes a CompressFloat64 call across the cluster.
func (cc *ClusterClient) CompressFloat64(ctx context.Context, vals []float64, p Params) ([]byte, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]byte, error) {
		return c.CompressFloat64(ctx, vals, p)
	})
}

// Decompress routes a Decompress call across the cluster.
func (cc *ClusterClient) Decompress(ctx context.Context, comp []byte) ([]float32, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]float32, error) {
		return c.Decompress(ctx, comp)
	})
}

// DecompressFloat64 routes a DecompressFloat64 call across the cluster.
func (cc *ClusterClient) DecompressFloat64(ctx context.Context, comp []byte) ([]float64, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]float64, error) {
		return c.DecompressFloat64(ctx, comp)
	})
}

// CompressBatch routes a batch compress across the cluster. The whole
// batch lands on one node (that is the point of batching); only
// request-level shed errors are retried — per-array errors inside a 200
// response are results, not failures, and come back as-is.
func (cc *ClusterClient) CompressBatch(ctx context.Context, arrays [][]float32, p Params) ([]BatchResult, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]BatchResult, error) {
		return c.CompressBatch(ctx, arrays, p)
	})
}

// DecompressBatch routes a batch decompress across the cluster.
func (cc *ClusterClient) DecompressBatch(ctx context.Context, comps [][]byte, p Params) ([]BatchValues, error) {
	return clusterDo(cc, ctx, func(ctx context.Context, c *Client) ([]BatchValues, error) {
		return c.DecompressBatch(ctx, comps, p)
	})
}

// Ready reports whether any node is accepting work, preferring the
// best-ranked candidate.
func (cc *ClusterClient) Ready(ctx context.Context) error {
	var err error
	for _, n := range cc.candidates("") {
		if err = n.c.Ready(ctx); err == nil {
			return nil
		}
	}
	return err
}

// latTracker is a lock-free latency sketch: power-of-two buckets of
// successful call durations. Quantiles land on a bucket's upper bound —
// coarse (within 2×), which is exactly the precision a hedge trigger
// needs and costs two atomic adds per observation.
type latTracker struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
}

func (t *latTracker) observe(d time.Duration) {
	if d < 0 {
		return
	}
	t.buckets[bits.Len64(uint64(d))].Add(1)
	t.count.Add(1)
}

// quantile returns the q-th latency quantile, or 0 while fewer than 16
// samples exist (callers fall back to the configured max delay).
func (t *latTracker) quantile(q float64) time.Duration {
	total := t.count.Load()
	if total < 16 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range t.buckets {
		cum += t.buckets[i].Load()
		if cum >= target {
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return 0
}

// creditBank is a token bucket in milli-credits: spending (a hedge or a
// retry) costs 1000, each successful call earns rate·1000, the bank is
// capped, and it starts with a small grant. The effect is a hard ratio
// bound — extra cluster load ≤ rate × successful traffic + the initial
// bank — which is what keeps hedging and retrying from amplifying an
// overload they cannot fix.
type creditBank struct {
	milli atomic.Int64
	earnM int64 // milli-credits granted per successful call
	capM  int64 // bank ceiling
}

func (b *creditBank) init(rate float64, initial int64) {
	if rate <= 0 {
		rate = 0.1
	}
	b.earnM = int64(rate * 1000)
	if b.earnM < 1 {
		b.earnM = 1
	}
	b.capM = 100 * 1000
	b.milli.Store(initial * 1000)
}

func (b *creditBank) take() bool {
	for {
		cur := b.milli.Load()
		if cur < 1000 {
			return false
		}
		if b.milli.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

func (b *creditBank) earn() {
	for {
		cur := b.milli.Load()
		next := cur + b.earnM
		if next > b.capM {
			next = b.capM
		}
		if next == cur || b.milli.CompareAndSwap(cur, next) {
			return
		}
	}
}
