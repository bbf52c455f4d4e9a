// Package engine is the unified federated round driver. The paper evaluates
// FedPKD and six baselines under one round structure — sample participants,
// train locally in parallel, upload knowledge, aggregate/distill on the
// server, broadcast, evaluate — and this package owns that invariant
// skeleton exactly once. Algorithms supply only the three knowledge-moving
// phase hooks (LocalUpdate, Aggregate, Digest) plus evaluation; the engine
// owns participant sampling, the worker-pool fan-out, drop injection, all
// ledger byte accounting (priced by Payload.WireBytes — see payload.go for
// the contract), the obs spans shared by every algorithm, and fl.History
// recording. internal/distrib drives the same hooks over a transport, so an
// algorithm written against this package runs in-process and distributed
// with no extra code.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fedpkd/internal/ckpt"
	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
	"fedpkd/internal/stats"
)

// Config holds the knobs every algorithm shares. Algorithm-specific configs
// embed or project onto it; FillDefaults is the one place the shared
// defaults and validation live.
type Config struct {
	// Env supplies the data: client splits, public set, test sets.
	Env *fl.Env
	// BatchSize is the minibatch size B (default 32).
	BatchSize int
	// LR is the Adam learning rate (default 0.001).
	LR float64
	// Seed drives model init, batch order, and the sampling/drop streams.
	Seed uint64
	// ClientFraction, when in (0, 1), samples that fraction of clients to
	// participate in each round (at least one), modelling the partial
	// participation of real federated deployments. 0 or 1 means everyone
	// participates.
	ClientFraction float64
	// ClientDropProb is the per-round probability that a participating
	// client fails before uploading (straggler/crash injection); its
	// knowledge is simply absent from that round's aggregation.
	ClientDropProb float64
}

// FillDefaults applies the shared defaults, then validates. Defaults are
// applied before validation so callers inspecting a config without an
// environment still see the paper's values. Idempotent.
func (c *Config) FillDefaults() error {
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.001
	}
	if c.Env == nil {
		return fmt.Errorf("engine: Config.Env is required")
	}
	if c.ClientFraction < 0 || c.ClientFraction > 1 {
		return fmt.Errorf("engine: ClientFraction must be in [0,1], got %v", c.ClientFraction)
	}
	if c.ClientDropProb < 0 || c.ClientDropProb >= 1 {
		return fmt.Errorf("engine: ClientDropProb must be in [0,1), got %v", c.ClientDropProb)
	}
	return nil
}

// Upload pairs a client id with the payload it sent. The engine hands
// Aggregate the surviving uploads sorted by client id, so floating-point
// reductions are order-stable regardless of fan-out scheduling.
type Upload struct {
	Client  int
	Payload *Payload
}

// Hooks are the algorithm-specific phases of a round. The engine (or
// internal/distrib, over a transport) calls them in order:
//
//	global := GlobalState(t)                    // server → clients
//	up[c] := LocalUpdate(rc, c, global)         // per client, in parallel
//	bcast := Aggregate(rc, survivors(up))       // server
//	Digest(rc, c, bcast)                        // per client, in parallel
//	sAcc, cAcc := Eval()                        // end of round
//
// Concurrency contract: LocalUpdate and Digest run concurrently across
// clients and must only touch state owned by client c plus read-only shared
// state; any state shared between clients (a global model, global
// prototypes) is written only in Aggregate, which runs alone. The engine
// provides the happens-before edges.
//
// Ownership contract: a hook reads a payload's Params only during the call
// that hands it over. internal/distrib reuses the global's Params once the
// client's upload is sent, the upload's (drawn from RoundContext.Vector)
// likewise, and every upload's once Aggregate returns — so a hook that needs
// parameters later copies them (FedAvg's next global is a new vector).
//
// Observability contract: the engine spans client_train around LocalUpdate,
// client_public around Digest, and eval around Eval. Server-side hooks span
// their own interior phases (aggregate, filter, server_train) via
// RoundContext.Span, so e.g. server training is not misattributed to
// aggregation.
type Hooks interface {
	// Name returns the algorithm's display name.
	Name() string
	// GlobalState returns the server state every participant downloads
	// before training (e.g. FedAvg's global weights), or nil when the
	// algorithm front-loads nothing. The engine charges its WireBytes to the
	// ledger once per participant.
	GlobalState(round int) *Payload
	// LocalUpdate trains client c locally and returns its upload. The
	// engine charges the upload's WireBytes for every client that does not
	// drop. Returning a nil payload means the client has nothing to upload.
	LocalUpdate(rc *RoundContext, c int, global *Payload) (*Payload, error)
	// Aggregate consumes the surviving uploads (sorted by client id),
	// updates server state, and returns the broadcast every participant
	// downloads — or nil when there is no post-aggregation broadcast (the
	// FedAvg family defers its download to the next round's GlobalState).
	Aggregate(rc *RoundContext, uploads []Upload) (*Payload, error)
	// Digest lets client c absorb the broadcast (distill the consensus,
	// store prototypes). Called only when Aggregate returned a broadcast;
	// the engine charges the broadcast's WireBytes per participant.
	Digest(rc *RoundContext, c int, bcast *Payload) error
	// Eval returns end-of-round (server, mean-client) accuracy; -1 marks a
	// metric the algorithm does not track.
	Eval() (serverAcc, clientAcc float64)
	// Snapshot writes the algorithm's full mutable state — client models and
	// optimizers, server model and optimizer, prototype banks, consensus
	// state — into checkpoint sections. Together with the engine-owned
	// sections (round counter, history, ledger) the dict must capture enough
	// to make a restored run bit-identical to an uninterrupted one; all RNG
	// streams derive from (Seed, round, client) so no generator state exists
	// outside the round counter. Section names must not collide with the
	// engine's reserved "engine.*" names.
	Snapshot(d *ckpt.Dict) error
	// Restore reads the state written by Snapshot into a freshly constructed
	// algorithm with the same Config. It must fail (not partially apply) on
	// missing or shape-mismatched sections.
	Restore(d *ckpt.Dict) error
}

// RoundContext gives hooks access to one round's environment, deterministic
// RNG streams, and phase spans. The streams are the repository-wide label
// scheme (offsets within round t of seed s):
//
//	t*1000 + c     local training, client c
//	t*1000 + 500+c digest / public training, client c
//	t*1000 + 777   drop injection (engine-owned)
//	t*1000 + 888   participant sampling (engine-owned)
//	t*1000 + 999   server training
type RoundContext struct {
	r     *Runner
	round int
	// vectors backs Vector; nil means a new slice each call.
	vectors func(n int) []float64
}

// WithVectors returns a copy of rc whose Vector draws from src instead of
// allocating. internal/distrib passes a lease on the transport's vector list,
// and returns the leased vectors once the upload built from them is sent.
func (rc *RoundContext) WithVectors(src func(n int) []float64) *RoundContext {
	out := *rc
	out.vectors = src
	return &out
}

// Vector returns a vector of length n for a hook to fill completely and
// upload — a flattened model. Its contents are unspecified. The hook must not
// keep it past the call: its driver may reuse it once the upload is on the
// wire. The in-process engine allocates it.
func (rc *RoundContext) Vector(n int) []float64 {
	if rc.vectors != nil {
		return rc.vectors(n)
	}
	return make([]float64, n)
}

// Round returns the round index t.
func (rc *RoundContext) Round() int { return rc.round }

// Env returns the run's environment.
func (rc *RoundContext) Env() *fl.Env { return rc.r.cfg.Env }

// LocalRNG returns client c's local-training stream for this round.
func (rc *RoundContext) LocalRNG(c int) *stats.RNG {
	return stats.Split(rc.r.cfg.Seed, uint64(rc.round)*1000+uint64(c))
}

// DigestRNG returns client c's digest-training stream for this round.
func (rc *RoundContext) DigestRNG(c int) *stats.RNG {
	return stats.Split(rc.r.cfg.Seed, uint64(rc.round)*1000+500+uint64(c))
}

// ServerRNG returns the server-training stream for this round.
func (rc *RoundContext) ServerRNG() *stats.RNG {
	return stats.Split(rc.r.cfg.Seed, uint64(rc.round)*1000+999)
}

// Span starts timing a named obs phase and returns the stop function.
// Nil-recorder-safe, like the Recorder itself.
func (rc *RoundContext) Span(phase string) func() { return rc.r.rec.Span(phase) }

// AddBatches adds a training call's minibatch steps to this run's trace of
// the round. Nil-recorder-safe; hooks call it once per fl.Train* call.
func (rc *RoundContext) AddBatches(n int) { rc.r.rec.AddBatches(n) }

// Runner drives an algorithm's hooks through communication rounds. It
// implements fl.Algorithm; algorithm types embed *Runner so Run, Round,
// Name, Ledger, and SetRecorder are their public API.
//
// The runner owns the run's cumulative state: the round counter, the
// per-round history, and the traffic ledger. Run(rounds) executes rounds
// MORE rounds and returns the cumulative history, so run-10 and
// run-5/checkpoint/resume/run-5 return identical histories — the resume-
// equivalence contract (DESIGN.md §6).
type Runner struct {
	hooks  Hooks
	cfg    Config
	ledger *comm.Ledger
	rec    *obs.Recorder
	round  int
	hist   *fl.History
	codec  comm.Codec

	// labelSuffix decorates the history's Algo label (internal/distrib
	// appends "(distributed)") without touching the algorithm name used for
	// checkpoint identity.
	labelSuffix string

	// Auto-checkpoint policy: when ckptDir is set and ckptEvery > 0,
	// CompleteRound writes a durable checkpoint every ckptEvery rounds.
	ckptDir   string
	ckptEvery int

	// ckptBuf holds every checkpoint this runner encodes, reused and never
	// shrunk. While ckptInFlight, a policy checkpoint's background write owns
	// it and will report on ckptDone (checkpoint.go).
	ckptBuf      ckpt.Enc
	ckptInFlight bool
	ckptDone     chan ckptWrite

	// async, when non-nil, makes every planned round a barrier-free buffer
	// flush (see async.go). Nil is the default synchronous mode.
	async *asyncState

	// avail, when non-nil, is the seeded availability trace (avail.go):
	// rounds and flushes sample their cohort from the clients it puts
	// online. Nil is the always-online legacy behavior.
	avail *AvailabilityTrace
}

var _ fl.Algorithm = (*Runner)(nil)

// NewRunner builds a runner for the given hooks. The config is defaulted
// and validated via FillDefaults.
func NewRunner(hooks Hooks, cfg Config) (*Runner, error) {
	if err := cfg.FillDefaults(); err != nil {
		return nil, err
	}
	return &Runner{hooks: hooks, cfg: cfg, ledger: comm.NewLedger(), ckptDone: make(chan ckptWrite, 1)}, nil
}

// Name implements fl.Algorithm.
func (r *Runner) Name() string { return r.hooks.Name() }

// Hooks returns the algorithm's phase hooks (internal/distrib drives them
// over a transport).
func (r *Runner) Hooks() Hooks { return r.hooks }

// Config returns the shared config with defaults applied.
func (r *Runner) Config() Config { return r.cfg }

// Ledger returns the traffic ledger.
func (r *Runner) Ledger() *comm.Ledger { return r.ledger }

// Engine returns the runner itself. Via embedding this is promoted onto
// every algorithm type, giving callers (internal/distrib, cmd) a uniform way
// to reach the engine under an fl.Algorithm value.
func (r *Runner) Engine() *Runner { return r }

// SetRecorder attaches an observability recorder: round phases and
// per-client training times are spanned, and each round's trace copies its
// ledger row when it closes (the recorder is bound to this runner's
// ledger). Attach before the first Round; nil detaches.
func (r *Runner) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	rec.SetCodec(r.codec.String())
	rec.Bind(r.ledger)
}

// Recorder returns the attached recorder, or nil. internal/distrib reads it
// so a service built without Options.Recorder keeps the runner's.
func (r *Runner) Recorder() *obs.Recorder { return r.rec }

// SetCodec selects the wire codec for every subsequent round: payloads are
// transcoded through it (the exact decode(encode(x)) the transport runs)
// before pricing and delivery, so ledger totals are real compressed wire
// bytes and in-process numerics match a distributed run under the same
// codec. The default CodecFloat64 is the exact legacy behaviour. Call
// before the first round; switching codecs mid-run would make cumulative
// byte totals incomparable.
func (r *Runner) SetCodec(c comm.Codec) error {
	if !c.Valid() {
		return fmt.Errorf("engine: invalid codec %d", uint8(c))
	}
	r.codec = c
	r.rec.SetCodec(c.String())
	return nil
}

// Codec returns the active wire codec.
func (r *Runner) Codec() comm.Codec { return r.codec }

// Context returns the hook context for the given round. Exposed for
// internal/distrib, which drives the hooks round by round itself.
func (r *Runner) Context(round int) *RoundContext {
	return &RoundContext{r: r, round: round}
}

// Participants returns the given round's participating client ids — the
// in-process cohort of Plan(round, nil) in synchronous mode: the online
// population (everyone without an availability trace) when ClientFraction is
// 0 or 1, otherwise a deterministic random sample of ceil(fraction·n) of them
// (at least one), sorted ascending. With a trace set, fraction sampling draws
// within the online set, so churn composes with partial participation.
func (r *Runner) Participants(round int) []int { return r.sample(round, r.Online(round, nil)) }

// sample draws round's ClientFraction sample of base (ascending); base itself
// when the fraction is 0 or 1.
func (r *Runner) sample(round int, base []int) []int {
	if r.cfg.ClientFraction == 0 || r.cfg.ClientFraction == 1 || len(base) == 0 {
		return base
	}
	k := int(math.Ceil(r.cfg.ClientFraction * float64(len(base))))
	if k < 1 {
		k = 1
	}
	if k > len(base) {
		k = len(base)
	}
	rng := stats.Split(r.cfg.Seed, uint64(round)*1000+888)
	stats.Shuffle(rng, base)
	picked := base[:k]
	sort.Ints(picked)
	return picked
}

// SetHistoryLabelSuffix decorates the history's Algo label (e.g.
// "(distributed)"). Call before the first round; it does not change the
// algorithm name used for checkpoint identity.
func (r *Runner) SetHistoryLabelSuffix(suffix string) { r.labelSuffix = suffix }

// CurrentRound returns the number of completed rounds (the next round's
// index).
func (r *Runner) CurrentRound() int { return r.round }

// RecordDegraded records a partial-cohort round in the cumulative history.
// The engine calls it for simulated drop injection; internal/distrib calls
// it when real timeouts or crashes shrank a round's cohort. Callers that
// want the round's full failure profile in the obs trace pair it with
// Recorder.SetRobustness.
func (r *Runner) RecordDegraded(d fl.DegradedRound) {
	r.ensureHistory()
	r.hist.AddDegraded(d)
}

// History returns the cumulative run history, creating it if needed.
func (r *Runner) History() *fl.History { return r.ensureHistory() }

func (r *Runner) ensureHistory() *fl.History {
	if r.hist == nil {
		env := r.cfg.Env
		r.hist = &fl.History{
			Algo:    r.hooks.Name() + r.labelSuffix,
			Dataset: env.Cfg.Spec.Name,
			Setting: env.Cfg.Partition.String(),
		}
	}
	return r.hist
}

// Run implements fl.Algorithm: it executes the given number of additional
// rounds, evaluating and recording history after each, and returns the
// cumulative history (including rounds restored from a checkpoint). It
// returns only once the last policy checkpoint is durable.
func (r *Runner) Run(rounds int) (*fl.History, error) {
	r.ensureHistory()
	err := r.run(rounds)
	if werr := r.WaitCheckpoint(); werr != nil {
		err = errors.Join(err, werr)
	}
	if err != nil {
		return r.hist, err
	}
	r.rec.Finish()
	return r.hist, nil
}

// run plays the rounds, stopping at the first error.
func (r *Runner) run(rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := r.Round(); err != nil {
			return fmt.Errorf("%s: round %d: %w", r.hooks.Name(), r.round-1, err)
		}
		if err := r.CompleteRound(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil runs rounds until the run has completed total rounds — the
// resume-aware entry point: after restoring a round-5 checkpoint,
// RunUntil(10) runs exactly the 5 remaining rounds.
func (r *Runner) RunUntil(total int) (*fl.History, error) {
	if total < r.round {
		err := fmt.Errorf("%s: RunUntil(%d) but %d rounds already completed", r.hooks.Name(), total, r.round)
		if werr := r.WaitCheckpoint(); werr != nil {
			err = errors.Join(err, werr)
		}
		return nil, err
	}
	return r.Run(total - r.round)
}

// BeginRound opens the next round's accounting — its ledger row, then its
// trace, which closes the previous one — and returns its index.
// internal/distrib drives rounds itself, pairing BeginRound with
// CompleteRound around its transport fan-out.
func (r *Runner) BeginRound() int {
	t := r.round
	r.round++
	r.ledger.StartRound(t)
	r.rec.RoundStarted(t)
	return t
}

// CompleteRound evaluates the just-executed round, appends its metrics to
// the cumulative history, and — when an auto-checkpoint policy is set —
// takes a checkpoint at the configured cadence: it encodes the state here
// and returns while the file is written and synced, so the newest policy
// file becomes durable during the next round. A write failure fails the
// next CompleteRound, or whichever call joins the write first (see
// WaitCheckpoint): continuing would silently void the durability the policy
// asked for.
func (r *Runner) CompleteRound() error {
	r.ensureHistory()
	stopEval := r.rec.Span(obs.PhaseEval)
	sAcc, cAcc := r.hooks.Eval()
	r.hist.Add(fl.RoundMetrics{
		Round:        r.round - 1,
		ServerAcc:    sAcc,
		ClientAcc:    cAcc,
		CumulativeMB: r.ledger.TotalMB(),
	})
	stopEval()
	if r.ckptDir != "" && r.ckptEvery > 0 && r.round%r.ckptEvery == 0 {
		return r.checkpointBehind()
	}
	return nil
}

// addUpload ledgers one upload's wire bytes, tracking the raw-equivalent
// price alongside when a compressing codec is active.
func (r *Runner) addUpload(wire, raw int) {
	if r.codec == comm.CodecFloat64 {
		r.ledger.AddUpload(wire)
		return
	}
	r.ledger.AddUploadRaw(wire, raw)
}

// addDownload is addUpload's download-side twin.
func (r *Runner) addDownload(wire, raw int) {
	if r.codec == comm.CodecFloat64 {
		r.ledger.AddDownload(wire)
		return
	}
	r.ledger.AddDownloadRaw(wire, raw)
}

// Round executes one communication round — or, in async mode, one buffer
// flush: plan it, then execute the plan in-process.
func (r *Runner) Round() error {
	p, err := r.Plan(r.BeginRound(), nil)
	if err != nil {
		return err
	}
	return r.execute(p)
}

// execute is the in-process driver of one plan (internal/distrib is the
// other): deliver each member its start, train, collect, aggregate, broadcast,
// commit. Drop injection (ClientDropProb, which async mode refuses) is the
// one step only this driver has.
func (r *Runner) execute(p *Plan) error {
	t, cohort := p.Round, p.Cohort
	rc := r.Context(t)
	r.rec.SetWorkers(fl.Workers(len(cohort)))
	if r.avail != nil {
		n := r.cfg.Env.Cfg.NumClients
		r.rec.SetChurn(obs.Churn{Registered: n, Online: len(r.Online(t, nil)), Cohort: len(cohort)})
	}

	// Starts are billed at delivery: a flush member's global was minted at
	// its dispatch flush but travels with this train order (DESIGN.md §3).
	for _, g := range p.Starts {
		if n := g.WireBytesIn(r.codec); n > 0 {
			r.addDownload(n, g.WireBytes())
		}
	}

	// Local training fan-out over the worker pool.
	payloads := make([]*Payload, len(cohort))
	err := fl.ForEachClient(len(cohort), func(i int) error {
		c := cohort[i]
		stopTrain := r.rec.ClientSpan(c)
		up, err := r.hooks.LocalUpdate(rc, c, p.Starts[i])
		stopTrain()
		if err != nil {
			return err
		}
		payloads[i] = up
		return nil
	})
	if err != nil {
		return err
	}

	// Drop injection, drawn in deterministic participant order (one draw per
	// participant) after the fan-out so completion scheduling cannot perturb
	// the stream. A dropped client trained but its upload is lost.
	var dropped []int
	if r.cfg.ClientDropProb > 0 {
		dropRng := stats.Split(r.cfg.Seed, uint64(t)*1000+777)
		for i := range cohort {
			if dropRng.Float64() < r.cfg.ClientDropProb {
				if payloads[i] != nil {
					dropped = append(dropped, cohort[i])
				}
				payloads[i] = nil
			}
		}
	}
	uploads := make([]Upload, 0, len(cohort))
	for i, c := range cohort {
		if payloads[i] == nil {
			continue
		}
		// The server aggregates what it decodes off the wire: the upload
		// after codec transcoding, params delta-coded against the start the
		// member holds.
		up := payloads[i].ApplyCodec(r.codec, p.Ref(i))
		r.addUpload(up.WireBytesIn(r.codec), up.WireBytes())
		uploads = append(uploads, Upload{Client: c, Payload: up})
	}
	if len(dropped) > 0 {
		r.RecordDegraded(fl.DegradedRound{
			Round:    t,
			Cohort:   len(uploads),
			Expected: len(uploads) + len(dropped),
			Missing:  dropped,
		})
		r.rec.SetRobustness(obs.Robustness{
			Cohort:   len(uploads),
			Expected: len(uploads) + len(dropped),
			Crashed:  dropped,
		})
	}

	// A round every member failed has nothing to aggregate or broadcast; a
	// flush still commits, with its whole cohort as contributors.
	if len(uploads) > 0 {
		bcast, err := p.Aggregate(uploads)
		if err != nil {
			return err
		}
		if bcast != nil {
			// Broadcast and digest fan-out, to every member — one that dropped
			// before uploading still receives the round's knowledge.
			// Broadcasts are never delta-coded: they define the next
			// reference rather than diffing against one.
			bcast = bcast.ApplyCodec(r.codec, nil)
			bcastBytes := bcast.WireBytesIn(r.codec)
			bcastRaw := bcast.WireBytes()
			err = fl.ForEachClient(len(cohort), func(i int) error {
				r.addDownload(bcastBytes, bcastRaw)
				stopPublic := r.rec.Span(obs.PhaseClientPublic)
				err := r.hooks.Digest(rc, cohort[i], bcast)
				stopPublic()
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	p.Commit(cohort)
	return nil
}
