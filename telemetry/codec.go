package telemetry

import (
	"sync/atomic"
	"time"
)

// The codec metric set. Each var is one observable; the registry in
// prometheus.go binds them to exposition names and help strings, and every
// export surface renders from that registry.

// Call-level compression/decompression totals.
var (
	CompressCalls       Counter
	CompressBytesIn     Counter // uncompressed input bytes
	CompressBytesOut    Counter // compressed output bytes
	DecompressCalls     Counter
	DecompressBytesIn   Counter   // compressed input bytes
	DecompressBytesOut  Counter   // reconstructed output bytes
	CompressDurations   Histogram // ns per Compress call
	DecompressDurations Histogram // ns per Decompress call
)

// Block-level encoder statistics (the paper's §4 block taxonomy).
var (
	BlocksConstant    Counter    // blocks stored as a single μ
	BlocksNonConstant Counter    // blocks that took the truncation path
	BlocksLossless    Counter    // nonconstant blocks escalated to the full word
	GuardRetries      Counter    // blocks re-encoded by the error-bound guard
	LeadCodes         [4]Counter // per-value identical-leading-byte code distribution
	ReqLenBits        BitHist    // per-block required bit count (Formula 4)
)

// Kernel-layer observables. The dispatch gauges form an info-style family
// (the active implementation set's series is 1, every other series 0); the
// invocation counters count block-level kernel calls — stats once per
// encoded block, encode_scan once per truncation attempt (so guard retries
// count each pass), decode_scan once per nonconstant block decoded. The
// counts are derived inside BlockTally.Flush / the decoder's bitmap tally,
// so the hot loops carry no new instrumentation.
var (
	KernelDispatchGeneric Gauge
	KernelDispatchAVX2    Gauge
	KernelStatsCalls      Counter
	KernelEncodeScanCalls Counter
	KernelDecodeScanCalls Counter
)

// kernelImpl/kernelDetail hold the dispatch decision (the impl name and the
// human-readable form, e.g. "avx2 (cpu feature detection)") for the build
// info and for re-assertion after Reset.
var (
	kernelImpl   atomic.Value
	kernelDetail atomic.Value
)

// SetKernelDispatch records which block-kernel implementation set dispatch
// selected. internal/core calls it once at init. Reset re-asserts the
// gauges from the recorded decision, so a metrics reset cannot make the
// info family claim no implementation is active.
func SetKernelDispatch(impl, detail string) {
	kernelImpl.Store(impl)
	kernelDetail.Store(detail)
	set := func(g *Gauge, active bool) {
		if active {
			g.Set(1)
		} else {
			g.Set(0)
		}
	}
	set(&KernelDispatchGeneric, impl == "generic")
	set(&KernelDispatchAVX2, impl == "avx2")
}

// KernelDispatchDetail returns the recorded dispatch decision, or "" when
// no codec package has registered one.
func KernelDispatchDetail() string {
	if s, ok := kernelDetail.Load().(string); ok {
		return s
	}
	return ""
}

// Decoder-side block counts (from the stream bitmap; kept separate from
// the encoder counts so a compress-then-decompress round trip does not
// double-count).
var (
	DecodedBlocksConstant    Counter
	DecodedBlocksNonConstant Counter
)

// Engine selection: which execution path each call took. The *Serial
// counters count serial-kernel invocations (including the adaptive
// fallbacks); the *Fallback counters count parallel-entry calls that the
// adaptive policy routed to the serial kernel (a fallback therefore
// increments both); the *Parallel counters count calls that engaged the
// work-stealing engine.
var (
	EngineCompressSerial     Counter
	EngineCompressFallback   Counter
	EngineCompressParallel   Counter
	EngineDecompressSerial   Counter
	EngineDecompressFallback Counter
	EngineDecompressParallel Counter
)

// Work-stealing engine internals (shared by the parallel compressor and
// decompressor).
var (
	ParallelChunksOwned     Counter   // chunks claimed by the calling goroutine
	ParallelChunksStolen    Counter   // chunks claimed by pool workers
	ParallelParticipants    Counter   // participants summed over engine calls
	ParallelActiveWorkers   Counter   // participants that claimed ≥1 chunk
	ParallelChunksPerWorker Histogram // chunks claimed per participant per call
	EncodePhaseDurations    Histogram // ns in the parallel encode phase
	GatherPhaseDurations    Histogram // ns in the parallel gather phase
)

// Container-level counters (streaming, archive, temporal layers).
var (
	StreamFramesWritten   Counter
	StreamFramesRead      Counter
	StreamFrameErrors     Counter // malformed/truncated/undecodable SZXS and SZXT frames
	ArchiveFieldsWritten  Counter
	ArchiveFieldsRead     Counter
	TimeFramesKey         Counter // self-contained temporal keyframes
	TimeFramesDelta       Counter // residual-coded temporal frames
	TimeKeyframeFallbacks Counter // delta frames re-coded as keyframes by the bound check
	RelativeBoundResolves Counter // BoundRelative range scans
)

// Fixed-ratio mode (Options.TargetRatio) bound-search counters.
var (
	RatioSearches    Counter // full bound searches run
	RatioProbes      Counter // sampled compression probes spent across searches
	RatioReestimates Counter // streaming follow-on chunks re-resolved from the seed
	RatioUnconverged Counter // searches that ended outside tolerance
)

// Pipelined streaming engine internals (PipeWriter/PipeReader). Depth is
// the configured ring size observed once per pipeline start; frames in
// flight is sampled at every chunk submission; the stall histograms
// separate the two ways a pipeline loses time — the producer waiting for a
// free ring slot (compute/emit side too slow) and the in-order consumer
// waiting for the next frame to finish (head-of-line chunk still
// compressing or still being read).
var (
	PipelineStarts         Counter   // ring-mode stream writers/readers started (inline mode starts none)
	PipelineDepths         Histogram // configured ring depth per pipeline start
	PipelineFramesInFlight Histogram // occupied ring slots, sampled per submission
	PipelineProducerStalls Histogram // ns the producer waited for a free slot
	PipelineConsumerStalls Histogram // ns the in-order consumer waited on the head frame
)

// BlockTally accumulates per-block and per-value encoder statistics
// without atomics. Each encoding worker owns one and calls Flush exactly
// once when its share of the call is done, so the shared counters see one
// atomic add per field per worker per call instead of per block or per
// value.
type BlockTally struct {
	Constant    int64
	NonConstant int64
	Lossless    int64
	Retries     int64
	Lead        [4]int64
	Req         [maxBitLen + 1]int64
}

// CountPackedLeads tallies the 2-bit leading-byte codes of one encoded
// block from its packed lead array (four codes per byte), n being the
// number of values in the block. Counting from the packed form costs one
// table load per four values instead of a load-increment per value, which
// is what keeps the enabled-telemetry overhead inside its ≤10% budget on
// the compression hot path.
func (t *BlockTally) CountPackedLeads(packed []byte, n int) {
	for _, b := range packed {
		c := &leadCountTab[b]
		t.Lead[0] += int64(c[0])
		t.Lead[1] += int64(c[1])
		t.Lead[2] += int64(c[2])
		t.Lead[3] += int64(c[3])
	}
	// The final packed byte pads missing slots with code 0; uncount them.
	t.Lead[0] -= int64((4 - n&3) & 3)
}

// leadCountTab[b] holds how many of b's four 2-bit fields equal each code.
var leadCountTab [256][4]uint8

func init() {
	for b := 0; b < 256; b++ {
		for s := 6; s >= 0; s -= 2 {
			leadCountTab[b][(b>>uint(s))&3]++
		}
	}
}

// Flush adds the tally into the shared counters and zeroes it.
func (t *BlockTally) Flush() {
	if t.Constant != 0 {
		BlocksConstant.Add(t.Constant)
	}
	if t.NonConstant != 0 {
		BlocksNonConstant.Add(t.NonConstant)
	}
	if t.Lossless != 0 {
		BlocksLossless.Add(t.Lossless)
	}
	if t.Retries != 0 {
		GuardRetries.Add(t.Retries)
	}
	for i, n := range t.Lead {
		if n != 0 {
			LeadCodes[i].Add(n)
		}
	}
	for i, n := range t.Req {
		if n != 0 {
			ReqLenBits.add(i, n)
		}
	}
	// Kernel invocations fall out of the block counts: every block ran the
	// stats reduction once, and every truncation attempt (accepted blocks
	// plus guard retries) ran the encode scan once.
	if n := t.Constant + t.NonConstant; n != 0 {
		KernelStatsCalls.Add(n)
	}
	if n := t.NonConstant + t.Retries; n != 0 {
		KernelEncodeScanCalls.Add(n)
	}
	*t = BlockTally{}
}

// RecordCompress records one completed compression call.
func RecordCompress(inBytes, outBytes int, elapsed time.Duration) {
	CompressCalls.Inc()
	CompressBytesIn.Add(int64(inBytes))
	CompressBytesOut.Add(int64(outBytes))
	CompressDurations.Observe(int64(elapsed))
}

// RecordDecompress records one completed decompression call.
func RecordDecompress(inBytes, outBytes int, elapsed time.Duration) {
	DecompressCalls.Inc()
	DecompressBytesIn.Add(int64(inBytes))
	DecompressBytesOut.Add(int64(outBytes))
	DecompressDurations.Observe(int64(elapsed))
}
