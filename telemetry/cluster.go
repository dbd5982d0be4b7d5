package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// The cluster metric set (service/cluster membership + the client-side
// ClusterClient). Like the service family these are ungated: membership
// transitions and routing decisions happen a handful of times per request
// or per poll round, never per block.
var (
	// Routing decisions, by the policy that made them. Fallback counts
	// dispatches where no routable (alive, non-draining) node existed and
	// the router resorted to a suspect or dead peer rather than failing
	// outright.
	ClusterRoutedHash        Counter
	ClusterRoutedLeastLoaded Counter
	ClusterRoutedOrdered     Counter
	ClusterRoutedFallback    Counter

	// Hedging: second-replica requests fired after the latency trigger, and
	// how many of those returned first (won the race against the primary).
	ClusterHedgesFired Counter
	ClusterHedgesWon   Counter

	// Retries against another replica after a retryable failure (429/503 or
	// a transport error), and dispatches the hedge/retry token buckets
	// refused — the budget backstop that keeps a cluster client from
	// amplifying load into an already-overloaded fleet.
	ClusterRetries           Counter
	ClusterHedgeBudgetDenied Counter
	ClusterRetryBudgetDenied Counter

	// Failure-detector state: instantaneous peer counts per state, and
	// cumulative transitions into each state (a flapping peer shows up as a
	// high transition rate with a steady state gauge).
	ClusterPeersAlive    Gauge
	ClusterPeersSuspect  Gauge
	ClusterPeersDead     Gauge
	ClusterPeerToAlive   Counter
	ClusterPeerToSuspect Counter
	ClusterPeerToDead    Counter

	// Membership poll rounds completed.
	ClusterPolls Counter
)

// clusterNodes is the per-node request tally: one counter per node address,
// created on first use. Node sets are dynamic (they come from -peers or a
// ClusterClient's node list at runtime), so this family lives outside the
// static registry; the registry walk appends it after the static families.
var clusterNodes struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// ClusterNodeRequests returns the request counter for one node address,
// creating it on first use. The address becomes the `node` label of the
// szx_cluster_node_requests_total series. The counter lives for the
// process (Reset zeroes it in place), so callers may hold it.
func ClusterNodeRequests(node string) *Counter {
	clusterNodes.mu.Lock()
	defer clusterNodes.mu.Unlock()
	if clusterNodes.m == nil {
		clusterNodes.m = make(map[string]*Counter)
	}
	c := clusterNodes.m[node]
	if c == nil {
		c = &Counter{}
		clusterNodes.m[node] = c
	}
	return c
}

// clusterNodeSeries reads the per-node tallies in node order (addresses
// with zero counts included: a node that was registered but never routed
// to is signal, not noise).
func clusterNodeSeries() []series {
	clusterNodes.mu.Lock()
	defer clusterNodes.mu.Unlock()
	nodes := make([]string, 0, len(clusterNodes.m))
	for k := range clusterNodes.m {
		nodes = append(nodes, k)
	}
	sort.Strings(nodes)
	out := make([]series, len(nodes))
	for i, k := range nodes {
		out[i] = series{labels: fmt.Sprintf("{node=%q}", k), value: clusterNodes.m[k].Load()}
	}
	return out
}

// resetClusterNodes zeroes the per-node counters in place: the node labels
// stay exported, and counters callers hold stay live.
func resetClusterNodes() {
	clusterNodes.mu.Lock()
	defer clusterNodes.mu.Unlock()
	for _, c := range clusterNodes.m {
		c.reset()
	}
}
