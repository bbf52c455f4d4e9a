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

// Runner drives an algorithm's hooks through communication rounds. It
// implements fl.Algorithm; algorithm types embed *Runner so Run, Round,
// Name, Ledger, and SetRecorder are their public API.
//
// The runner owns the run's cumulative state: the round counter, the
// per-round history, and the traffic ledger. Run(rounds) executes rounds
// MORE rounds and returns the cumulative history, so run-10 and
// run-5/checkpoint/resume/run-5 return identical histories — the resume-
// equivalence contract (DESIGN.md §8).
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

	// async, when non-nil, switches Round() to barrier-free buffer flushes
	// (see async.go). Nil is the default synchronous mode.
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
	return &Runner{hooks: hooks, cfg: cfg, ledger: comm.NewLedger()}, nil
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
// per-client training times are spanned, and the ledger's byte accounting
// is mirrored into the recorder's traces. Attach before the first Round;
// nil detaches.
func (r *Runner) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	if rec == nil {
		r.ledger.SetObserver(nil)
		return
	}
	rec.SetCodec(r.codec.String())
	r.ledger.SetObserver(rec)
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

// Participants returns the given round's participating client ids: the
// online population (everyone without an availability trace) when
// ClientFraction is 0 or 1, otherwise a deterministic random sample of
// ceil(fraction·n) of them (at least one), sorted ascending. With a trace
// set, fraction sampling draws within the online set, so churn composes
// with partial participation.
func (r *Runner) Participants(round int) []int {
	base := r.Online(round)
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
// cumulative history (including rounds restored from a checkpoint).
func (r *Runner) Run(rounds int) (*fl.History, error) {
	r.ensureHistory()
	for i := 0; i < rounds; i++ {
		if err := r.Round(); err != nil {
			return r.hist, fmt.Errorf("%s: round %d: %w", r.hooks.Name(), r.round-1, err)
		}
		if err := r.CompleteRound(); err != nil {
			return r.hist, err
		}
	}
	r.rec.Finish()
	return r.hist, nil
}

// RunUntil runs rounds until the run has completed total rounds — the
// resume-aware entry point: after restoring a round-5 checkpoint,
// RunUntil(10) runs exactly the 5 remaining rounds.
func (r *Runner) RunUntil(total int) (*fl.History, error) {
	if total < r.round {
		return nil, fmt.Errorf("%s: RunUntil(%d) but %d rounds already completed", r.hooks.Name(), total, r.round)
	}
	return r.Run(total - r.round)
}

// BeginRound opens the next round's accounting and returns its index.
// internal/distrib drives rounds itself, pairing BeginRound with
// CompleteRound around its transport fan-out.
func (r *Runner) BeginRound() int {
	t := r.round
	r.round++
	r.ledger.StartRound(t)
	return t
}

// CompleteRound evaluates the just-executed round, appends its metrics to
// the cumulative history, and — when an auto-checkpoint policy is set —
// writes a durable checkpoint at the configured cadence. A checkpoint write
// failure fails the round: continuing would silently void the durability
// the policy asked for.
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
		if _, err := r.SaveCheckpoint(r.ckptDir); err != nil {
			return fmt.Errorf("%s: checkpoint after round %d: %w", r.hooks.Name(), r.round-1, err)
		}
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

// Round executes one communication round through the phase hooks — or, in
// async mode, one buffer flush (async.go).
func (r *Runner) Round() error {
	t := r.BeginRound()
	if r.async != nil {
		return r.asyncFlush(t)
	}

	rc := r.Context(t)
	participants := r.Participants(t)
	r.rec.SetWorkers(fl.Workers(len(participants)))
	if r.avail != nil {
		n := r.cfg.Env.Cfg.NumClients
		r.rec.SetChurn(obs.Churn{Registered: n, Online: len(r.Online(t)), Cohort: len(participants)})
	}

	// Front-loaded server state: every participant downloads it. Under a
	// compressing codec clients receive (and train against) the transcoded
	// global; its params double as the delta reference for this round's
	// uploads — both ends hold exactly these values.
	global := r.hooks.GlobalState(t).ApplyCodec(r.codec, nil)
	var refParams []float64
	if global != nil {
		refParams = global.Params
	}
	if n := global.WireBytesIn(r.codec); n > 0 {
		raw := global.WireBytes()
		for range participants {
			r.addDownload(n, raw)
		}
	}

	// Local training fan-out over the worker pool.
	payloads := make([]*Payload, len(participants))
	err := fl.ForEachClient(len(participants), func(i int) error {
		c := participants[i]
		stopTrain := r.rec.ClientSpan(c)
		up, err := r.hooks.LocalUpdate(rc, c, global)
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
		for i := range participants {
			if dropRng.Float64() < r.cfg.ClientDropProb {
				if payloads[i] != nil {
					dropped = append(dropped, participants[i])
				}
				payloads[i] = nil
			}
		}
	}
	uploads := make([]Upload, 0, len(participants))
	for i, c := range participants {
		if payloads[i] == nil {
			continue
		}
		// The server aggregates what it decodes off the wire: the upload
		// after codec transcoding, params delta-coded against the global
		// reference both ends share.
		up := payloads[i].ApplyCodec(r.codec, refParams)
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
	if len(uploads) == 0 {
		// Every participant failed: nothing to aggregate this round.
		return nil
	}

	bcast, err := r.hooks.Aggregate(rc, uploads)
	if err != nil {
		return err
	}
	if bcast == nil {
		return nil
	}

	// Broadcast and digest fan-out, to every participant — a client that
	// dropped before uploading still receives the round's knowledge.
	// Broadcasts are never delta-coded: they define the next reference
	// rather than diffing against one.
	bcast = bcast.ApplyCodec(r.codec, nil)
	bcastBytes := bcast.WireBytesIn(r.codec)
	bcastRaw := bcast.WireBytes()
	return fl.ForEachClient(len(participants), func(i int) error {
		c := participants[i]
		r.addDownload(bcastBytes, bcastRaw)
		stopPublic := r.rec.Span(obs.PhaseClientPublic)
		err := r.hooks.Digest(rc, c, bcast)
		stopPublic()
		return err
	})
}
