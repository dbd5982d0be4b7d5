package telemetry

import (
	"bytes"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// metric binds one exported observable to its Prometheus identity. Exactly
// one of c/g/h/b is non-nil. Counters sharing a name (labeled series) must be
// adjacent in the registry so HELP/TYPE headers are emitted once.
type metric struct {
	name   string // Prometheus metric family name
	help   string
	labels string // pre-rendered label set, e.g. `{code="0"}`, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	b      *BitHist
	scale  float64 // histogram value multiplier on export (ns→s = 1e-9)
	blabel string  // BitHist label key
}

// registry is the one list of exported metrics. Every surface renders from
// it (see families) and Reset walks it, so adding a metric is one var plus
// one entry here; no other code names it.
var registry = []metric{
	{name: "szx_compress_calls_total", help: "Compression calls completed.", c: &CompressCalls},
	{name: "szx_compress_input_bytes_total", help: "Uncompressed bytes consumed by compression.", c: &CompressBytesIn},
	{name: "szx_compress_output_bytes_total", help: "Compressed bytes produced.", c: &CompressBytesOut},
	{name: "szx_decompress_calls_total", help: "Decompression calls completed.", c: &DecompressCalls},
	{name: "szx_decompress_input_bytes_total", help: "Compressed bytes consumed by decompression.", c: &DecompressBytesIn},
	{name: "szx_decompress_output_bytes_total", help: "Reconstructed bytes produced.", c: &DecompressBytesOut},

	{name: "szx_blocks_total", help: "Blocks encoded, by type (the paper's constant/nonconstant taxonomy).", labels: `{type="constant"}`, c: &BlocksConstant},
	{name: "szx_blocks_total", labels: `{type="nonconstant"}`, c: &BlocksNonConstant},
	{name: "szx_blocks_total", labels: `{type="lossless"}`, c: &BlocksLossless},
	{name: "szx_guard_retries_total", help: "Blocks re-encoded by the error-bound guard pass.", c: &GuardRetries},
	{name: "szx_decoded_blocks_total", help: "Blocks decoded, by type.", labels: `{type="constant"}`, c: &DecodedBlocksConstant},
	{name: "szx_decoded_blocks_total", labels: `{type="nonconstant"}`, c: &DecodedBlocksNonConstant},

	{name: "szx_lead_code_values_total", help: "Values encoded, by 2-bit identical-leading-byte code.", labels: `{code="0"}`, c: &LeadCodes[0]},
	{name: "szx_lead_code_values_total", labels: `{code="1"}`, c: &LeadCodes[1]},
	{name: "szx_lead_code_values_total", labels: `{code="2"}`, c: &LeadCodes[2]},
	{name: "szx_lead_code_values_total", labels: `{code="3"}`, c: &LeadCodes[3]},
	{name: "szx_reqlen_blocks_total", help: "Nonconstant blocks by required bit count (Formula 4).", b: &ReqLenBits, blabel: "bits"},

	{name: "szx_kernel_dispatched", help: "Dispatched block-kernel implementation set (the active set's series is 1); override with SZX_KERNELS.", labels: `{impl="generic"}`, g: &KernelDispatchGeneric},
	{name: "szx_kernel_dispatched", labels: `{impl="avx2"}`, g: &KernelDispatchAVX2},
	{name: "szx_kernel_invocations_total", help: "Block-kernel invocations: stats runs once per encoded block, encode_scan once per truncation attempt (guard retries count each pass), decode_scan once per nonconstant block decoded.", labels: `{kernel="stats"}`, c: &KernelStatsCalls},
	{name: "szx_kernel_invocations_total", labels: `{kernel="encode_scan"}`, c: &KernelEncodeScanCalls},
	{name: "szx_kernel_invocations_total", labels: `{kernel="decode_scan"}`, c: &KernelDecodeScanCalls},

	{name: "szx_engine_selected_total", help: "Execution-engine selection per call; serial_fallback marks parallel-entry calls the adaptive policy routed to the serial kernel.", labels: `{op="compress",engine="serial"}`, c: &EngineCompressSerial},
	{name: "szx_engine_selected_total", labels: `{op="compress",engine="serial_fallback"}`, c: &EngineCompressFallback},
	{name: "szx_engine_selected_total", labels: `{op="compress",engine="parallel"}`, c: &EngineCompressParallel},
	{name: "szx_engine_selected_total", labels: `{op="decompress",engine="serial"}`, c: &EngineDecompressSerial},
	{name: "szx_engine_selected_total", labels: `{op="decompress",engine="serial_fallback"}`, c: &EngineDecompressFallback},
	{name: "szx_engine_selected_total", labels: `{op="decompress",engine="parallel"}`, c: &EngineDecompressParallel},

	{name: "szx_parallel_chunks_total", help: "Work-stealing chunks claimed, by claimant (owned = calling goroutine, stolen = pool worker).", labels: `{claimant="owned"}`, c: &ParallelChunksOwned},
	{name: "szx_parallel_chunks_total", labels: `{claimant="stolen"}`, c: &ParallelChunksStolen},
	{name: "szx_parallel_participants_total", help: "Engine-call participants, summed over calls.", c: &ParallelParticipants},
	{name: "szx_parallel_active_workers_total", help: "Participants that claimed at least one chunk.", c: &ParallelActiveWorkers},
	{name: "szx_parallel_chunks_per_worker", help: "Chunks claimed per participant per engine call.", h: &ParallelChunksPerWorker, scale: 1},

	{name: "szx_compress_duration_seconds", help: "Wall time per compression call.", h: &CompressDurations, scale: 1e-9},
	{name: "szx_decompress_duration_seconds", help: "Wall time per decompression call.", h: &DecompressDurations, scale: 1e-9},
	{name: "szx_parallel_encode_phase_seconds", help: "Wall time of the parallel engine's encode phase.", h: &EncodePhaseDurations, scale: 1e-9},
	{name: "szx_parallel_gather_phase_seconds", help: "Wall time of the parallel engine's gather phase.", h: &GatherPhaseDurations, scale: 1e-9},

	{name: "szx_pipeline_starts_total", help: "Pipelined stream writers/readers started.", c: &PipelineStarts},
	{name: "szx_pipeline_depth", help: "Configured pipeline ring depth per start.", h: &PipelineDepths, scale: 1},
	{name: "szx_pipeline_frames_in_flight", help: "Occupied pipeline ring slots, sampled per chunk submission.", h: &PipelineFramesInFlight, scale: 1},
	{name: "szx_pipeline_producer_stall_seconds", help: "Time the pipeline producer waited for a free ring slot.", h: &PipelineProducerStalls, scale: 1e-9},
	{name: "szx_pipeline_consumer_stall_seconds", help: "Time the in-order pipeline consumer waited on the head frame.", h: &PipelineConsumerStalls, scale: 1e-9},

	{name: "szx_stream_frames_written_total", help: "Streaming-container frames written.", c: &StreamFramesWritten},
	{name: "szx_stream_frames_read_total", help: "Streaming-container frames read.", c: &StreamFramesRead},
	{name: "szx_stream_frame_errors_total", help: "Malformed, truncated or undecodable frames in SZXS and SZXT stream containers.", c: &StreamFrameErrors},
	{name: "szx_archive_fields_written_total", help: "Archive fields compressed and added.", c: &ArchiveFieldsWritten},
	{name: "szx_archive_fields_read_total", help: "Archive fields decompressed.", c: &ArchiveFieldsRead},
	{name: "szx_time_frames_total", help: "Temporal-compressor frames, by kind.", labels: `{kind="key"}`, c: &TimeFramesKey},
	{name: "szx_time_frames_total", labels: `{kind="delta"}`, c: &TimeFramesDelta},
	{name: "szx_time_keyframe_fallbacks_total", help: "Delta frames re-coded as keyframes by the bound check.", c: &TimeKeyframeFallbacks},
	{name: "szx_relative_bound_resolves_total", help: "Value-range scans performed for BoundRelative options.", c: &RelativeBoundResolves},

	{name: "szx_ratio_searches_total", help: "Fixed-ratio (TargetRatio) bound searches run.", c: &RatioSearches},
	{name: "szx_ratio_probes_total", help: "Sampled compression probes spent by fixed-ratio bound searches.", c: &RatioProbes},
	{name: "szx_ratio_reestimates_total", help: "Streaming follow-on chunks re-resolved from the first chunk's seed bound.", c: &RatioReestimates},
	{name: "szx_ratio_unconverged_total", help: "Fixed-ratio searches that ended outside the ratio tolerance.", c: &RatioUnconverged},

	{name: "szx_service_requests_total", help: "Admitted service requests, by endpoint.", labels: `{endpoint="compress"}`, c: &ServiceRequestsCompress},
	{name: "szx_service_requests_total", labels: `{endpoint="decompress"}`, c: &ServiceRequestsDecompress},
	{name: "szx_service_requests_total", labels: `{endpoint="stream_compress"}`, c: &ServiceRequestsStreamCompress},
	{name: "szx_service_requests_total", labels: `{endpoint="stream_decompress"}`, c: &ServiceRequestsStreamDecompress},
	{name: "szx_service_requests_total", labels: `{endpoint="batch_compress"}`, c: &ServiceRequestsBatchCompress},
	{name: "szx_service_requests_total", labels: `{endpoint="batch_decompress"}`, c: &ServiceRequestsBatchDecompress},
	{name: "szx_service_bytes_in_total", help: "Request payload bytes received by the service.", c: &ServiceBytesIn},
	{name: "szx_service_bytes_out_total", help: "Response payload bytes sent by the service.", c: &ServiceBytesOut},
	{name: "szx_service_rejected_total", help: "Requests refused by admission control, by reason (queue_full and wait_timeout are 429s, draining is a 503).", labels: `{reason="queue_full"}`, c: &ServiceRejectedQueueFull},
	{name: "szx_service_rejected_total", labels: `{reason="wait_timeout"}`, c: &ServiceRejectedWaitTimeout},
	{name: "szx_service_rejected_total", labels: `{reason="draining"}`, c: &ServiceRejectedDraining},
	{name: "szx_service_request_errors_total", help: "Admitted requests that failed, by kind.", labels: `{kind="bad_request"}`, c: &ServiceBadRequests},
	{name: "szx_service_request_errors_total", labels: `{kind="cancelled"}`, c: &ServiceCancelledRequests},
	{name: "szx_service_in_flight", help: "Requests currently holding an execution slot.", g: &ServiceInFlight},
	{name: "szx_service_queue_depth", help: "Requests currently waiting in the admission queue.", g: &ServiceQueueDepth},
	{name: "szx_service_queue_wait_seconds", help: "Admission-queue wait time of admitted requests.", h: &ServiceQueueWaits, scale: 1e-9},
	{name: "szx_service_request_duration_seconds", help: "End-to-end handler time of admitted requests.", h: &ServiceRequestDurations, scale: 1e-9},

	{name: "szx_batch_arrays_total", help: "Arrays processed by the batch endpoints.", c: &BatchArrays},
	{name: "szx_batch_array_errors_total", help: "Arrays that failed individually inside an otherwise successful batch.", c: &BatchArrayErrors},
	{name: "szx_batch_arrays_per_request", help: "Arrays carried per batch request.", h: &BatchArraysPerRequest, scale: 1},
	{name: "szx_batch_array_bytes", help: "Payload bytes per batched array.", h: &BatchArrayBytes, scale: 1},
	{name: "szx_batch_coalesced_calls_total", help: "Client calls merged into coalesced batch requests.", c: &BatchCoalescedCalls},
	{name: "szx_batch_coalesce_wait_seconds", help: "Time an individual client call waited for its coalesced batch to flush.", h: &BatchCoalesceWaits, scale: 1e-9},

	{name: "szx_cluster_routing_total", help: "Cluster routing decisions, by the policy that made them (fallback = no routable node, resorted to a suspect/dead peer).", labels: `{policy="hash"}`, c: &ClusterRoutedHash},
	{name: "szx_cluster_routing_total", labels: `{policy="least_loaded"}`, c: &ClusterRoutedLeastLoaded},
	{name: "szx_cluster_routing_total", labels: `{policy="ordered"}`, c: &ClusterRoutedOrdered},
	{name: "szx_cluster_routing_total", labels: `{policy="fallback"}`, c: &ClusterRoutedFallback},
	{name: "szx_cluster_hedges_total", help: "Hedged (second-replica) requests: fired after the latency trigger, won = hedge returned before the primary.", labels: `{event="fired"}`, c: &ClusterHedgesFired},
	{name: "szx_cluster_hedges_total", labels: `{event="won"}`, c: &ClusterHedgesWon},
	{name: "szx_cluster_retries_total", help: "Requests retried against another replica after a retryable failure.", c: &ClusterRetries},
	{name: "szx_cluster_budget_denied_total", help: "Hedges/retries suppressed by the amplification budget.", labels: `{kind="hedge"}`, c: &ClusterHedgeBudgetDenied},
	{name: "szx_cluster_budget_denied_total", labels: `{kind="retry"}`, c: &ClusterRetryBudgetDenied},
	{name: "szx_cluster_peer_state", help: "Peers per failure-detector state.", labels: `{state="alive"}`, g: &ClusterPeersAlive},
	{name: "szx_cluster_peer_state", labels: `{state="suspect"}`, g: &ClusterPeersSuspect},
	{name: "szx_cluster_peer_state", labels: `{state="dead"}`, g: &ClusterPeersDead},
	{name: "szx_cluster_peer_transitions_total", help: "Failure-detector state transitions, by target state.", labels: `{to="alive"}`, c: &ClusterPeerToAlive},
	{name: "szx_cluster_peer_transitions_total", labels: `{to="suspect"}`, c: &ClusterPeerToSuspect},
	{name: "szx_cluster_peer_transitions_total", labels: `{to="dead"}`, c: &ClusterPeerToDead},
	{name: "szx_cluster_polls_total", help: "Membership poll rounds completed.", c: &ClusterPolls},
}

func (m metric) typ() string {
	switch {
	case m.h != nil:
		return "histogram"
	case m.g != nil:
		return "gauge"
	}
	return "counter"
}

// A family is one exported metric family as the registry walk reads it:
// its Prometheus identity and the series it holds at the moment of the
// read.
type family struct {
	name, help, typ string
	scale           float64 // histograms: value multiplier on export
	series          []series
}

// A series is one labeled sample of a family. Counters and gauges carry
// value; a histogram's single series carries hist.
type series struct {
	labels string // pre-rendered label set, e.g. `{code="0"}`, or ""
	value  int64
	hist   HistogramSnapshot
}

// buildInfoName is the info-style family whose labels carry the binary's
// identity; Report renders it as its header line.
const buildInfoName = "szx_build_info"

// families reads every exported metric in exposition order: szx_build_info,
// the registry, then the per-node cluster family. It is the one walk every
// export surface — WritePrometheus, Snap (and so expvar) and Report —
// renders from, so a metric is exported by its registry entry alone.
func families() []family {
	scrapeMu.RLock()
	defer scrapeMu.RUnlock()
	bi := GetBuildInfo()
	fams := []family{{
		name: buildInfoName, typ: "gauge",
		help: "Build identity of this binary; the value is always 1.",
		series: []series{{value: 1, labels: fmt.Sprintf("{version=%q,revision=%q,goversion=%q,kernels=%q}",
			bi.Version, bi.VCSRev, bi.GoVersion, bi.Kernels)}},
	}}
	for _, m := range registry {
		if fams[len(fams)-1].name != m.name {
			fams = append(fams, family{name: m.name, help: m.help, typ: m.typ(), scale: m.scale})
		}
		f := &fams[len(fams)-1]
		switch {
		case m.c != nil:
			f.series = append(f.series, series{labels: m.labels, value: m.c.Load()})
		case m.g != nil:
			f.series = append(f.series, series{labels: m.labels, value: m.g.Load()})
		case m.h != nil:
			f.series = append(f.series, series{hist: m.h.Snapshot()})
		case m.b != nil:
			for i := range m.b.buckets {
				if n := m.b.buckets[i].Load(); n != 0 {
					f.series = append(f.series, series{labels: fmt.Sprintf("{%s=\"%d\"}", m.blabel, i), value: n})
				}
			}
		}
	}
	if nodes := clusterNodeSeries(); len(nodes) > 0 {
		fams = append(fams, family{name: "szx_cluster_node_requests_total", typ: "counter",
			help: "Requests dispatched per cluster node by this process.", series: nodes})
	}
	return fams
}

// scrapeMu orders whole-registry reads against Reset. The walk takes the
// read side, so concurrent scrapes still run in parallel; Reset takes the
// write side, so a read sees every metric either before or after a reset,
// never a mix (e.g. the kernel-dispatch pair with neither series at 1).
// It does not order reads against Observe/Inc, which stay lock-free: a
// histogram's page is self-consistent because its +Inf bucket and count
// are the sum of the bucket values the same read loaded.
var scrapeMu sync.RWMutex

// WritePrometheus emits every metric in the Prometheus text exposition
// format (version 0.0.4). Counters become `counter` families (with labels
// where a family is split by type/engine/code), Histograms become native
// `histogram` families with power-of-two `le` buckets, and the BitHist
// becomes a labeled counter family with one series per observed bit count.
func WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range families() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if f.typ == "histogram" {
				writePromHistogram(&b, f, s.hist)
			} else {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.value)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writePromHistogram(b *bytes.Buffer, f family, h HistogramSnapshot) {
	cum := int64(0)
	for _, bk := range h.Buckets {
		cum += bk.Count
		le := strconv.FormatFloat(float64(bk.Le)*f.scale, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", f.name, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, h.Count)
	fmt.Fprintf(b, "%s_sum %g\n", f.name, float64(h.Sum)*f.scale)
	fmt.Fprintf(b, "%s_count %d\n", f.name, h.Count)
}

// Handler serves the Prometheus text exposition (a /metrics endpoint).
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w)
	})
}

// DebugHandler bundles every HTTP export surface on one mux: /metrics
// (Prometheus text), /debug/vars (expvar JSON, including the "szx"
// series map), and /debug/pprof (CPU/heap/goroutine profiles; CPU samples
// carry szx_stage labels when telemetry is enabled). This is what the
// -stats-http flag of cmd/szx and cmd/szxbench serves.
func DebugHandler() http.Handler {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

var expvarOnce sync.Once

// PublishExpvar publishes Snap under the expvar key "szx" (visible at
// /debug/vars). Safe to call multiple times; only the first call
// registers.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("szx", expvar.Func(func() any { return Snap() }))
	})
}
