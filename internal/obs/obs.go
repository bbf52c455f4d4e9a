// Package obs is the round-level observability layer of the simulation
// stack. It answers the questions the paper's accuracy-vs-round and
// accuracy-vs-communication figures (Figs. 3-5) raise but the History alone
// cannot: where a round spends its wall time (per-client local training,
// server aggregation and distillation, evaluation) and where its bytes
// accrue (copied from the round's internal/comm ledger row when its trace
// closes; the ledger is the run's one byte counter).
//
// The package is dependency-light by design — stdlib plus internal/tensor
// (for kernel counters) and internal/comm (for the ledger rows); neither
// imports anything of ours that imports obs, so the graph stays acyclic —
// and the round layers (internal/fl/engine, internal/core,
// internal/baselines, internal/distrib) import it without cycles. The
// training loops of internal/fl do not: they return their step counts, and
// the round hooks add them to their own run's trace. The package holds no
// process state; a run's numbers live in its Recorder, and the one expvar it
// publishes, fedpkd_kernel_stats, reads the tensor layer's counters when
// asked. All Recorder methods are safe on a nil receiver, so instrumented
// call-sites cost one pointer test when observability is disabled, and safe
// for concurrent use, so fl.ForEachClient workers can record without
// coordination.
package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/tensor"
)

// Phase names used by the built-in instrumentation. Algorithms may record
// additional phases; these are the ones every instrumented call-site shares.
const (
	// PhaseClientTrain is client-side private (local) training.
	PhaseClientTrain = "client_train"
	// PhaseClientPublic is client-side public/digest training (distilling
	// server or consensus knowledge).
	PhaseClientPublic = "client_public"
	// PhaseAggregate is server-side knowledge aggregation (logit ensembling,
	// prototype aggregation, weight averaging).
	PhaseAggregate = "aggregate"
	// PhaseFilter is server-side data filtering (Algorithm 1).
	PhaseFilter = "filter"
	// PhaseServerTrain is server-side model training / ensemble distillation.
	PhaseServerTrain = "server_train"
	// PhaseEval is end-of-round evaluation on the test sets.
	PhaseEval = "eval"
	// PhaseCheckpoint is what a run-state checkpoint costs the round that
	// takes it: any wait on the previous write and the encode, plus the
	// durable write itself when the save is synchronous, so traces show
	// what checkpointing costs a round.
	PhaseCheckpoint = "checkpoint"
	// PhaseLeafReduce is a leaf aggregator's share of a hierarchical round:
	// fanning the shard's round framing and reducing its uploads into the
	// shard digest. Summed across leaves (they run concurrently), like the
	// client phases.
	PhaseLeafReduce = "leaf_reduce"
	// PhaseRootMerge is the root aggregator's digest merge in a hierarchical
	// round (the flat server's aggregate step is still PhaseAggregate,
	// recorded inside it).
	PhaseRootMerge = "root_merge"
)

func init() {
	// Live kernel/arena counters from the tensor compute layer, exported as
	// one JSON object at /debug/vars. They are process-wide by nature: every
	// run in the process issues products through the same kernels. What a
	// run measures lives in its Recorder's traces.
	expvar.Publish("fedpkd_kernel_stats", expvar.Func(func() any {
		s := tensor.ReadKernelStats()
		b, _ := json.Marshal(s)
		return json.RawMessage(b)
	}))
}

// RoundTrace is the observed cost profile of one communication round.
type RoundTrace struct {
	// Algo names the recorded algorithm.
	Algo string `json:"algo"`
	// Round is the round index the algorithm reported via RoundStarted.
	Round int `json:"round"`
	// WallNS is the round's wall-clock span in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// UploadBytes and DownloadBytes are the comm ledger's accounting for
	// this round (client→server and server→client respectively). Like every
	// byte column below, they are copied from the round's ledger row when
	// the trace closes.
	UploadBytes   int64 `json:"upload_bytes"`
	DownloadBytes int64 `json:"download_bytes"`
	// ControlBytes is the ledger's control-plane category: payload-free
	// round framing and reconnect handshakes. Zero for in-process runs.
	ControlBytes int64 `json:"control_bytes,omitempty"`
	// Codec names the wire codec the run negotiated, when it is not the
	// default float64raw. UploadRawBytes / DownloadRawBytes then carry the
	// uncompressed-equivalent sizes of the same traffic, so a trace shows
	// the round's compression ratio directly.
	Codec            string `json:"codec,omitempty"`
	UploadRawBytes   int64  `json:"upload_raw_bytes,omitempty"`
	DownloadRawBytes int64  `json:"download_raw_bytes,omitempty"`
	// TierUpBytes and TierDownBytes are the ledger's aggregator-tree
	// backhaul columns (leaf→root digests, root→leaf assignments). Zero —
	// and omitted, so legacy trace schemas are unchanged — for flat runs.
	TierUpBytes   int64 `json:"tier_up_bytes,omitempty"`
	TierDownBytes int64 `json:"tier_down_bytes,omitempty"`
	// Batches is the number of minibatches this run's training loops
	// stepped during the round, client and server alike: each training call
	// adds its step count through the engine's RoundContext, so concurrent
	// runs in one process never count each other's.
	Batches int64 `json:"batches"`
	// Workers is the size of the parallel client fan-out this round.
	Workers int `json:"workers"`
	// Kernel* fields are deltas of the tensor compute layer's process-wide
	// counters over this round (unlike Batches, concurrent runs in one
	// process share them): scalar multiply-adds executed, kernel launches (each on
	// its caller's goroutine), matrices allocated, and scratch-arena misses.
	// A steady-state round should show KernelMatrixAllocs and
	// KernelScratchMisses near zero. KernelParallelCalls is always 0: the
	// tensor layer has no worker pool. It remains only because the benchmark
	// harness (bench/run.go) reads it, and goes when the harness stops
	// reading it; JSONL omits it and the CSV column prints 0.
	KernelOps           int64 `json:"kernel_ops,omitempty"`
	KernelParallelCalls int64 `json:"kernel_parallel_calls,omitempty"`
	KernelSerialCalls   int64 `json:"kernel_serial_calls,omitempty"`
	KernelMatrixAllocs  int64 `json:"kernel_matrix_allocs,omitempty"`
	KernelScratchMisses int64 `json:"kernel_scratch_misses,omitempty"`
	// ClientTrainNS maps client id to that client's local-training time.
	ClientTrainNS map[int]int64 `json:"client_train_ns,omitempty"`
	// PhaseNS maps phase name to cumulative time spent in that phase. For
	// phases running concurrently across clients (client_train,
	// client_public) this is summed CPU-side busy time, not wall time.
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	// Robustness carries the round's failure-tolerance profile when the
	// distributed runtime ran with deadlines or fault injection; nil for
	// healthy in-process rounds.
	Robustness *Robustness `json:"robustness,omitempty"`
	// Async carries the buffer-flush profile when the run executed in the
	// barrier-free async mode; nil for synchronous rounds.
	Async *AsyncTrace `json:"async,omitempty"`
	// Churn carries the round's population profile when the run sampled its
	// cohort from a live registry or an availability trace; nil for the
	// legacy fixed-cohort path.
	Churn *Churn `json:"churn,omitempty"`
}

// Churn is the population profile of one round under live cohort churn: how
// many clients were registered when the round opened, how many of those the
// availability trace put online, how many the round actually scheduled, and
// the registrations applied at the opening barrier.
type Churn struct {
	// Registered is the size of the registered population at the round
	// barrier; Online is the subset the availability trace put online;
	// Cohort is the number of clients the round scheduled.
	Registered int `json:"registered"`
	Online     int `json:"online"`
	Cohort     int `json:"cohort"`
	// Joins and Leaves count the registrations and deregistrations applied
	// at this round's opening barrier.
	Joins  int `json:"joins,omitempty"`
	Leaves int `json:"leaves,omitempty"`
}

// AsyncTrace is the buffer-flush profile of one async round: the configured
// buffer size, how many uploads actually arrived, the logical clock at flush
// completion, and the staleness of each aggregated contribution.
type AsyncTrace struct {
	// Buffer is the configured flush size K; Occupancy is the number of
	// uploads the flush aggregated (< K when the failure model lost some).
	Buffer    int `json:"buffer"`
	Occupancy int `json:"occupancy"`
	// Clock is the logical arrival-schedule time the flush completed at.
	Clock uint64 `json:"clock"`
	// Staleness lists each contribution's staleness, in contributor order.
	Staleness []int `json:"staleness,omitempty"`
}

// Robustness is the failure-tolerance profile of one distributed round: how
// many clients the round expected vs. aggregated, who was lost and why, and
// how much chaos the fault layer injected while it ran.
type Robustness struct {
	// Cohort is the number of client uploads aggregated; Expected is the
	// cohort size the round started with. Cohort < Expected marks a partial
	// round.
	Cohort   int `json:"cohort"`
	Expected int `json:"expected"`
	// TimedOut and Crashed list clients lost to the straggler deadline and to
	// injected crashes, respectively.
	TimedOut []int `json:"timed_out,omitempty"`
	Crashed  []int `json:"crashed,omitempty"`
	// StaleDropped, DupDropped, and CorruptDropped count envelopes the server
	// discarded after validation (wrong round, replayed upload, undecodable
	// payload).
	StaleDropped   int `json:"stale_dropped,omitempty"`
	DupDropped     int `json:"dup_dropped,omitempty"`
	CorruptDropped int `json:"corrupt_dropped,omitempty"`
	// UnknownDropped counts uploads from peers that never registered (or had
	// already deregistered) — the tolerant-mode counterpart of
	// ErrUnknownClient.
	UnknownDropped int `json:"unknown_dropped,omitempty"`
	// Retries counts client-side send retries this round; FaultsInjected is
	// the chaos layer's injection count delta for the round.
	Retries        int   `json:"retries,omitempty"`
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// Tier-plane counters, present only for aggregator-tree rounds:
	// LeafTimeouts counts shards whose digest missed the root's LeafTimeout,
	// DigestRetries counts leaf-side digest send retries, DigestDups counts
	// duplicate digests the root rejected, and ShardsLost lists the shards
	// excluded from the round's merge, sorted ascending.
	LeafTimeouts  int   `json:"leaf_timeouts,omitempty"`
	DigestRetries int   `json:"digest_retries,omitempty"`
	DigestDups    int   `json:"digest_dups,omitempty"`
	ShardsLost    []int `json:"shards_lost,omitempty"`
}

// TotalBytes returns upload + download + control bytes.
func (t RoundTrace) TotalBytes() int64 { return t.UploadBytes + t.DownloadBytes + t.ControlBytes }

// Recorder collects RoundTraces for one algorithm run. Its traces take their
// byte columns from the run's ledger (see Bind). All methods are
// nil-receiver-safe no-ops and safe for concurrent use from parallel client
// workers.
type Recorder struct {
	mu         sync.Mutex
	algo       string
	codec      string
	ledger     *comm.Ledger
	open       bool
	cur        RoundTrace
	start      time.Time
	kernelMark tensor.KernelStats
	done       []RoundTrace
	onRound    func(RoundTrace)
}

// NewRecorder returns a Recorder labeling its traces with the algorithm
// name.
func NewRecorder(algo string) *Recorder {
	return &Recorder{algo: algo}
}

// OnRoundEnd registers a callback invoked with each completed RoundTrace
// (the live progress hook). The callback runs outside the Recorder's lock.
func (r *Recorder) OnRoundEnd(fn func(RoundTrace)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onRound = fn
	r.mu.Unlock()
}

// Bind names the ledger whose rows the recorder's traces copy their byte
// columns from: a trace closing takes its round's row. An unbound recorder's
// traces carry no bytes.
func (r *Recorder) Bind(l *comm.Ledger) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ledger = l
	r.mu.Unlock()
}

// RoundStarted closes any open round and begins a new trace. The engine
// calls it right after the bound ledger opens the round's row.
func (r *Recorder) RoundStarted(round int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	closed, cb, ok := r.closeLocked()
	r.open = true
	r.start = time.Now()
	r.kernelMark = tensor.ReadKernelStats()
	r.cur = RoundTrace{
		Algo:          r.algo,
		Codec:         r.codec,
		Round:         round,
		ClientTrainNS: make(map[int]int64),
		PhaseNS:       make(map[string]int64),
	}
	r.mu.Unlock()
	if ok && cb != nil {
		cb(closed)
	}
}

// Finish closes the open round, if any. Idempotent; call it after the last
// round so the final trace is complete before emission.
func (r *Recorder) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	closed, cb, ok := r.closeLocked()
	r.mu.Unlock()
	if ok && cb != nil {
		cb(closed)
	}
}

// closeLocked finalizes the open trace. Caller holds r.mu.
func (r *Recorder) closeLocked() (RoundTrace, func(RoundTrace), bool) {
	if !r.open {
		return RoundTrace{}, nil, false
	}
	if r.ledger != nil {
		if row, ok := r.ledger.Row(r.cur.Round); ok {
			r.cur.UploadBytes, r.cur.DownloadBytes, r.cur.ControlBytes = row.Upload, row.Download, row.Control
			r.cur.UploadRawBytes, r.cur.DownloadRawBytes = row.RawUpload, row.RawDownload
			r.cur.TierUpBytes, r.cur.TierDownBytes = row.TierUp, row.TierDown
		}
	}
	r.cur.WallNS = int64(time.Since(r.start))
	ks := tensor.ReadKernelStats()
	r.cur.KernelOps = ks.Ops - r.kernelMark.Ops
	r.cur.KernelSerialCalls = ks.SerialCalls - r.kernelMark.SerialCalls
	r.cur.KernelMatrixAllocs = ks.MatrixAllocs - r.kernelMark.MatrixAllocs
	r.cur.KernelScratchMisses = ks.ScratchMisses - r.kernelMark.ScratchMisses
	r.done = append(r.done, r.cur)
	r.open = false
	return r.cur, r.onRound, true
}

// SetCodec labels subsequent traces with the run's wire codec. Pass the
// empty string (or the default codec's name, "float64raw") to clear: the
// default is left implicit in traces, matching the ledger's convention of
// only tracking raw-equivalent bytes under a compressing codec.
func (r *Recorder) SetCodec(codec string) {
	if r == nil {
		return
	}
	if codec == "float64raw" {
		codec = ""
	}
	r.mu.Lock()
	r.codec = codec
	r.cur.Codec = codec
	r.mu.Unlock()
}

// SetRobustness attaches the round's failure-tolerance profile to the open
// trace. Call once per round, before the next RoundStarted/Finish closes the
// trace.
func (r *Recorder) SetRobustness(rb Robustness) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.Robustness = &rb
	r.mu.Unlock()
}

// SetAsync attaches the round's async buffer-flush profile to the open
// trace. Call once per flush, before the next RoundStarted/Finish closes it.
func (r *Recorder) SetAsync(a AsyncTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.Async = &a
	r.mu.Unlock()
}

// SetChurn attaches the round's population profile to the open trace. Call
// once per round, before the next RoundStarted/Finish closes the trace.
func (r *Recorder) SetChurn(c Churn) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.Churn = &c
	r.mu.Unlock()
}

// AddBatches adds n minibatches to the open round's count: a training
// call's step count, added once per call. A no-op before the first round
// and after Finish.
func (r *Recorder) AddBatches(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.open {
		r.cur.Batches += int64(n)
	}
	r.mu.Unlock()
}

// SetWorkers records the parallel fan-out width of the current round.
func (r *Recorder) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n > r.cur.Workers {
		r.cur.Workers = n
	}
	r.mu.Unlock()
}

// Span starts timing a named phase and returns the stop function.
// Overlapping spans of the same phase accumulate. Typical use:
//
//	stop := rec.Span(obs.PhaseServerTrain)
//	... work ...
//	stop()
func (r *Recorder) Span(phase string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := int64(time.Since(start))
		r.mu.Lock()
		if r.cur.PhaseNS != nil {
			r.cur.PhaseNS[phase] += d
		}
		r.mu.Unlock()
	}
}

// ClientSpan starts timing one client's local training and returns the stop
// function. The time lands both in the per-client breakdown and in the
// aggregate client_train phase.
func (r *Recorder) ClientSpan(client int) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := int64(time.Since(start))
		r.mu.Lock()
		if r.cur.ClientTrainNS != nil {
			r.cur.ClientTrainNS[client] += d
		}
		if r.cur.PhaseNS != nil {
			r.cur.PhaseNS[PhaseClientTrain] += d
		}
		r.mu.Unlock()
	}
}

// Traces returns a copy of the completed round traces. Call Finish first if
// the final round should be included.
func (r *Recorder) Traces() []RoundTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RoundTrace, len(r.done))
	copy(out, r.done)
	return out
}
