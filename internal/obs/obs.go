// Package obs is the round-level observability layer of the simulation
// stack. It answers the questions the paper's accuracy-vs-round and
// accuracy-vs-communication figures (Figs. 3-5) raise but the History alone
// cannot: where a round spends its wall time (per-client local training,
// server aggregation and distillation, evaluation) and where its bytes
// accrue (fed by internal/comm's ledger observer hook).
//
// The package is dependency-light by design — stdlib plus internal/tensor
// (for kernel counters; tensor imports nothing of ours, so the graph stays
// acyclic) — and every layer (internal/fl, internal/core,
// internal/baselines, internal/distrib) can import it without cycles. All
// Recorder methods are safe on a nil receiver,
// so instrumented call-sites cost one pointer test when observability is
// disabled, and safe for concurrent use, so fl.ForEachClient workers can
// record without coordination.
package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"time"

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
	// PhaseCheckpoint is the durable write of a run-state checkpoint, so
	// traces show what checkpointing costs a round.
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

// Process-wide counters, published via expvar so the -debug-addr endpoint
// exposes them at /debug/vars. They aggregate across every run in the
// process; per-round attribution lives in the Recorder.
var (
	batchesTotal  = expvar.NewInt("fedpkd_batches_total")
	workerBusyNS  = expvar.NewInt("fedpkd_worker_busy_ns")
	activeWorkers = expvar.NewInt("fedpkd_active_workers")
	roundsTotal   = expvar.NewInt("fedpkd_rounds_total")

	// Checkpoint counters: the round the latest durable checkpoint covers,
	// cumulative bytes written, cumulative write time, and write count —
	// enough to read checkpoint cost and cadence off /debug/vars.
	lastCheckpointRound = expvar.NewInt("fedpkd_last_checkpoint_round")
	checkpointBytes     = expvar.NewInt("fedpkd_checkpoint_bytes_total")
	checkpointWriteNS   = expvar.NewInt("fedpkd_checkpoint_write_ns_total")
	checkpointsTotal    = expvar.NewInt("fedpkd_checkpoints_total")

	// Robustness counters: cumulative faults injected by the chaos layer,
	// stale/duplicate envelopes the server discarded, client retries, and
	// rounds that closed with a partial cohort. They aggregate across runs in
	// the process; per-round attribution lives in RoundTrace.Robustness.
	faultsInjectedTotal = expvar.NewInt("fedpkd_faults_injected_total")
	staleDroppedTotal   = expvar.NewInt("fedpkd_stale_dropped_total")
	retriesTotal        = expvar.NewInt("fedpkd_retries_total")
	partialRoundsTotal  = expvar.NewInt("fedpkd_partial_rounds_total")

	// Async counters: buffer flushes completed, cumulative buffer occupancy
	// (contributors aggregated), cumulative and maximum contribution
	// staleness. Mean occupancy and mean staleness read directly off
	// /debug/vars as the ratios occupancy/flushes and staleness/flushes.
	asyncFlushesTotal   = expvar.NewInt("fedpkd_async_flushes_total")
	asyncOccupancyTotal = expvar.NewInt("fedpkd_async_occupancy_total")
	asyncStalenessTotal = expvar.NewInt("fedpkd_async_staleness_total")
	asyncStalenessMax   = expvar.NewInt("fedpkd_async_staleness_max")

	// Registry/churn counters: the currently registered population (gauge),
	// cumulative joins and leaves applied at round barriers. Per-round
	// attribution lives in RoundTrace.Churn.
	registrySize        = expvar.NewInt("fedpkd_registry_size")
	registryJoinsTotal  = expvar.NewInt("fedpkd_registry_joins_total")
	registryLeavesTotal = expvar.NewInt("fedpkd_registry_leaves_total")
)

// AddFaultsInjected bumps the process-wide injected-fault counter.
func AddFaultsInjected(n int64) { faultsInjectedTotal.Add(n) }

// AddStaleDropped bumps the process-wide stale/duplicate-discard counter.
func AddStaleDropped(n int64) { staleDroppedTotal.Add(n) }

// AddRetries bumps the process-wide client-retry counter.
func AddRetries(n int64) { retriesTotal.Add(n) }

// AddPartialRound counts one round that closed with a partial cohort.
func AddPartialRound() { partialRoundsTotal.Add(1) }

// RecordAsyncFlush publishes one async buffer flush: its occupancy (uploads
// aggregated) and the staleness of each contribution.
func RecordAsyncFlush(occupancy int, staleness []int) {
	asyncFlushesTotal.Add(1)
	asyncOccupancyTotal.Add(int64(occupancy))
	for _, s := range staleness {
		asyncStalenessTotal.Add(int64(s))
		// expvar.Int has no CAS; a concurrent larger max can win the race,
		// which only ever leaves the gauge at a legitimate observed value.
		if int64(s) > asyncStalenessMax.Value() {
			asyncStalenessMax.Set(int64(s))
		}
	}
}

func init() {
	// Live kernel/arena counters from the tensor compute layer, exported as
	// one JSON object at /debug/vars alongside the round counters.
	expvar.Publish("fedpkd_kernel_stats", expvar.Func(func() any {
		s := tensor.ReadKernelStats()
		b, _ := json.Marshal(s)
		return json.RawMessage(b)
	}))
}

// AddBatches counts minibatches processed by the training loops.
func AddBatches(n int) { batchesTotal.Add(int64(n)) }

// BatchesTotal returns the process-wide minibatch count.
func BatchesTotal() int64 { return batchesTotal.Value() }

// WorkerStarted marks one fan-out worker goroutine as active.
func WorkerStarted() { activeWorkers.Add(1) }

// WorkerDone marks one fan-out worker goroutine as parked.
func WorkerDone() { activeWorkers.Add(-1) }

// AddWorkerBusy accumulates time a fan-out worker spent inside a client job.
func AddWorkerBusy(d time.Duration) { workerBusyNS.Add(int64(d)) }

// RecordCheckpoint publishes one durable checkpoint write: the round it
// covers, its encoded size, and how long the write took.
func RecordCheckpoint(round int, bytes int64, d time.Duration) {
	lastCheckpointRound.Set(int64(round))
	checkpointBytes.Add(bytes)
	checkpointWriteNS.Add(int64(d))
	checkpointsTotal.Add(1)
}

// RoundTrace is the observed cost profile of one communication round.
type RoundTrace struct {
	// Algo names the recorded algorithm.
	Algo string `json:"algo"`
	// Round is the round index the algorithm reported via RoundStarted.
	Round int `json:"round"`
	// WallNS is the round's wall-clock span in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// UploadBytes and DownloadBytes mirror the comm ledger's accounting for
	// this round (client→server and server→client respectively).
	UploadBytes   int64 `json:"upload_bytes"`
	DownloadBytes int64 `json:"download_bytes"`
	// ControlBytes mirrors the ledger's control-plane category: payload-free
	// round framing and reconnect handshakes. Zero for in-process runs.
	ControlBytes int64 `json:"control_bytes,omitempty"`
	// Codec names the wire codec the run negotiated, when it is not the
	// default float64raw. UploadRawBytes / DownloadRawBytes then carry the
	// uncompressed-equivalent sizes of the same traffic, so a trace shows
	// the round's compression ratio directly.
	Codec            string `json:"codec,omitempty"`
	UploadRawBytes   int64  `json:"upload_raw_bytes,omitempty"`
	DownloadRawBytes int64  `json:"download_raw_bytes,omitempty"`
	// TierUpBytes and TierDownBytes mirror the ledger's aggregator-tree
	// backhaul columns (leaf→root digests, root→leaf assignments). Zero —
	// and omitted, so legacy trace schemas are unchanged — for flat runs.
	TierUpBytes   int64 `json:"tier_up_bytes,omitempty"`
	TierDownBytes int64 `json:"tier_down_bytes,omitempty"`
	// Batches is the number of minibatches processed during the round
	// (process-wide counter delta; concurrent runs in one process share it).
	Batches int64 `json:"batches"`
	// Workers is the size of the parallel client fan-out this round.
	Workers int `json:"workers"`
	// Kernel* fields are deltas of the tensor compute layer's process-wide
	// counters over this round (like Batches, concurrent runs in one process
	// share them): scalar multiply-adds executed, kernel launches that fanned
	// out across the worker pool vs. ran serially, matrices allocated, and
	// scratch-arena misses. A steady-state round should show
	// KernelMatrixAllocs and KernelScratchMisses near zero.
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

// Recorder collects RoundTraces for one algorithm run. It implements
// internal/comm's Ledger observer contract (RoundStarted, UploadedBytes,
// DownloadedBytes), so attaching it to a ledger wires byte accounting for
// free. All methods are nil-receiver-safe no-ops and safe for concurrent
// use from parallel client workers.
type Recorder struct {
	mu         sync.Mutex
	algo       string
	codec      string
	open       bool
	cur        RoundTrace
	start      time.Time
	batchMark  int64
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

// RoundStarted closes any open round and begins a new trace. It is the
// comm.Observer round hook: ledger.StartRound drives it.
func (r *Recorder) RoundStarted(round int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	closed, cb, ok := r.closeLocked()
	r.open = true
	r.start = time.Now()
	r.batchMark = BatchesTotal()
	r.kernelMark = tensor.ReadKernelStats()
	r.cur = RoundTrace{
		Algo:          r.algo,
		Codec:         r.codec,
		Round:         round,
		ClientTrainNS: make(map[int]int64),
		PhaseNS:       make(map[string]int64),
	}
	r.mu.Unlock()
	roundsTotal.Add(1)
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
	r.cur.WallNS = int64(time.Since(r.start))
	r.cur.Batches = BatchesTotal() - r.batchMark
	ks := tensor.ReadKernelStats()
	r.cur.KernelOps = ks.Ops - r.kernelMark.Ops
	r.cur.KernelParallelCalls = ks.ParallelCalls - r.kernelMark.ParallelCalls
	r.cur.KernelSerialCalls = ks.SerialCalls - r.kernelMark.SerialCalls
	r.cur.KernelMatrixAllocs = ks.MatrixAllocs - r.kernelMark.MatrixAllocs
	r.cur.KernelScratchMisses = ks.ScratchMisses - r.kernelMark.ScratchMisses
	r.done = append(r.done, r.cur)
	r.open = false
	return r.cur, r.onRound, true
}

// UploadedBytes records client→server traffic (comm.Observer hook).
func (r *Recorder) UploadedBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.UploadBytes += int64(n)
	r.mu.Unlock()
}

// DownloadedBytes records server→client traffic (comm.Observer hook).
func (r *Recorder) DownloadedBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.DownloadBytes += int64(n)
	r.mu.Unlock()
}

// ControlBytes records control-plane traffic (comm.Observer hook).
func (r *Recorder) ControlBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.ControlBytes += int64(n)
	r.mu.Unlock()
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

// UploadedRawBytes records the raw-equivalent size of a compressed upload
// (comm.RawObserver hook).
func (r *Recorder) UploadedRawBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.UploadRawBytes += int64(n)
	r.mu.Unlock()
}

// DownloadedRawBytes records the raw-equivalent size of a compressed
// download (comm.RawObserver hook).
func (r *Recorder) DownloadedRawBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.DownloadRawBytes += int64(n)
	r.mu.Unlock()
}

// TierUpBytes records leaf→root aggregator-tree backhaul
// (comm.TierObserver hook).
func (r *Recorder) TierUpBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.TierUpBytes += int64(n)
	r.mu.Unlock()
}

// TierDownBytes records root→leaf aggregator-tree backhaul
// (comm.TierObserver hook).
func (r *Recorder) TierDownBytes(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.TierDownBytes += int64(n)
	r.mu.Unlock()
}

// SetRobustness attaches the round's failure-tolerance profile to the open
// trace and feeds the process-wide robustness counters. Call once per round,
// before the next RoundStarted/Finish closes the trace.
func (r *Recorder) SetRobustness(rb Robustness) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.Robustness = &rb
	r.mu.Unlock()
	AddStaleDropped(int64(rb.StaleDropped + rb.DupDropped + rb.CorruptDropped))
	AddRetries(int64(rb.Retries))
	AddFaultsInjected(rb.FaultsInjected)
	if rb.Cohort < rb.Expected {
		AddPartialRound()
	}
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

// SetChurn attaches the round's population profile to the open trace and
// feeds the process-wide registry counters. Call once per round, before the
// next RoundStarted/Finish closes the trace.
func (r *Recorder) SetChurn(c Churn) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cur.Churn = &c
	r.mu.Unlock()
	registrySize.Set(int64(c.Registered))
	registryJoinsTotal.Add(int64(c.Joins))
	registryLeavesTotal.Add(int64(c.Leaves))
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

// Instrumented is implemented by algorithms that can attach a Recorder
// (core.FedPKD and every baseline).
type Instrumented interface {
	SetRecorder(*Recorder)
}
