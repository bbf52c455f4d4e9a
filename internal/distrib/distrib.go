// Package distrib runs any engine-backed algorithm as communicating
// processes: the server and every client execute in their own goroutine and
// exchange knowledge exclusively through the transport layer (in-memory bus
// or real TCP), exercising the same wire protocol a multi-host deployment
// would use. The round skeleton mirrors internal/fl/engine — RoundStart
// carries the front-loaded global state, RoundUpload the local updates,
// RoundEnd the aggregation broadcast — so the phase hooks an algorithm wrote
// for the in-process engine drive the distributed run unchanged. The ledger
// records the actual encoded wire bytes rather than the analytic sizes of
// internal/comm, so traffic totals differ from in-process runs while the
// accuracy trajectory is bit-identical (payload values travel as float64).
//
// # Failure model
//
// By default the runtime is strict: any protocol violation, lost message, or
// dead peer aborts the run, which is the right behavior for debugging and
// for the determinism goldens. Options turns on the failure-tolerant mode:
// a positive ClientTimeout bounds how long the server waits for uploads each
// round (stragglers and crashed clients are simply left out of the
// aggregate), a faults.Plan injects deterministic chaos beneath the
// protocol, MinQuorum aborts rounds that heard from too few clients, and
// Retry gives clients bounded exponential backoff on transient send
// failures. Partial rounds are recorded in fl.History.Degraded and in the
// per-round obs Robustness trace, so degradation is measurable rather than
// silent. Because every fault draw is a pure function of the plan seed and
// the message coordinates, two tolerant runs with the same seed accept the
// same uploads in the same rounds and produce identical histories.
package distrib

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Protocol-violation errors. Strict mode returns them (wrapped with
// context); tolerant mode counts the offending envelope in the round's
// Robustness trace and drops it.
var (
	// ErrStaleEnvelope marks a message stamped with a round other than the
	// one in flight — a late upload from a past round, or leftover traffic a
	// restarted client finds on its connection.
	ErrStaleEnvelope = errors.New("distrib: stale envelope")
	// ErrPeerMismatch marks an envelope whose From/To addressing does not
	// match the connection it arrived on.
	ErrPeerMismatch = errors.New("distrib: peer mismatch")
	// ErrDuplicateUpload marks a second upload from a client that already
	// contributed this round (the transport-duplication dedup).
	ErrDuplicateUpload = errors.New("distrib: duplicate upload")
	// ErrQuorumNotMet aborts a round that collected fewer uploads than
	// Options.MinQuorum.
	ErrQuorumNotMet = errors.New("distrib: quorum not met")
	// ErrShardQuorumNotMet aborts a tree round whose root merged fewer
	// surviving shard digests than Options.ShardQuorum.
	ErrShardQuorumNotMet = errors.New("distrib: shard quorum not met")
	// ErrCodecMismatch marks an upload encoded under a codec other than the
	// one the round's RoundStart negotiated.
	ErrCodecMismatch = errors.New("distrib: upload codec mismatch")
)

// Mode selects the wire.
type Mode string

// Supported modes.
const (
	// ModeBus uses the in-memory transport.
	ModeBus Mode = "bus"
	// ModeTCP uses loopback TCP connections.
	ModeTCP Mode = "tcp"
)

// Options parameterizes a distributed run of any engine-backed algorithm.
// The zero value (plus a Mode) reproduces the strict runtime.
type Options struct {
	// Mode selects the transport; empty means ModeBus.
	Mode Mode
	// Recorder, when non-nil, receives per-round spans, wire-byte counters,
	// and the Robustness trace.
	Recorder *obs.Recorder
	// ClientTimeout bounds how long the server waits for the round's
	// uploads. Zero waits forever (strict mode). When positive, clients
	// that miss the deadline are left out of the aggregate and the round
	// completes with a partial cohort.
	ClientTimeout time.Duration
	// MinQuorum is the minimum number of uploads a round must aggregate;
	// fewer aborts the round with ErrQuorumNotMet. Zero disables the check
	// (a round that heard from nobody skips aggregation, matching the
	// engine's dropout semantics).
	MinQuorum int
	// Faults, when non-nil and enabled, injects deterministic chaos on
	// every client connection. Lossy plans require a positive
	// ClientTimeout.
	Faults *faults.Plan
	// Retry configures the clients' upload backoff on transient send
	// failures; zero fields take the faults.Backoff defaults.
	Retry faults.Backoff
	// FaultStats, when non-nil, accumulates the run's injected-fault
	// counters for the caller to inspect.
	FaultStats *faults.Stats
	// Population lists the client ids registered before the first round; nil
	// registers the whole fleet up front (the legacy fixed-cohort behavior).
	// Clients outside the initial population may still register mid-run via
	// hello envelopes — their workers park until a round schedules them.
	Population []int
	// WireRegistration makes the initial population register through real
	// hello envelopes instead of being pre-seeded into the registry: the
	// service starts with nobody registered and blocks until every
	// Population member's hello arrives, the path `serve` mode uses so that
	// registration is observable wire traffic.
	WireRegistration bool
	// Barrier, when non-nil, runs at every round barrier before the round
	// opens — the control plane's pause/save/quit hook. All workers are
	// parked while it runs, so it may checkpoint safely; a returned error
	// stops the run with that error.
	Barrier func(round int) error
	// Topology, when enabled (Shards > 1), runs the round over a two-tier
	// aggregator tree: leaf aggregators own contiguous client id shards and
	// the root merges shard digests only. The client-plane protocol, history,
	// and ledger totals are byte-identical to the flat runtime; the tree's
	// leaf↔root backhaul is billed separately in the tier columns.
	Topology Topology
	// LeafTimeout bounds how long the root waits for each round's shard
	// digests. Zero waits forever (strict tree mode). When positive, shards
	// whose digest misses the deadline are marked lost and the round
	// aggregates the surviving partials — the tier-plane analog of
	// ClientTimeout. Tree mode only; lossy tier fault plans require it.
	LeafTimeout time.Duration
	// ShardQuorum is the minimum number of shard digests a tree round must
	// merge; fewer aborts the round with ErrShardQuorumNotMet. Zero disables
	// the check (a round that lost every shard skips aggregation, like a
	// round that heard from nobody).
	ShardQuorum int
}

func (o *Options) validate(n int) error {
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if o.Faults.Lossy() && o.ClientTimeout <= 0 {
		return fmt.Errorf("distrib: fault plan [%v] can lose messages or clients; set a positive ClientTimeout so the server does not wait forever", o.Faults)
	}
	if o.MinQuorum < 0 || o.MinQuorum > n {
		return fmt.Errorf("distrib: MinQuorum %d out of range [0,%d]", o.MinQuorum, n)
	}
	if err := o.Topology.validate(n); err != nil {
		return err
	}
	if o.Topology.Enabled() && o.WireRegistration {
		return fmt.Errorf("distrib: WireRegistration is not supported with an aggregator tree: wire registration reads the fan-in socket the tree's demultiplexer owns")
	}
	if o.LeafTimeout < 0 {
		return fmt.Errorf("distrib: LeafTimeout must be >= 0, got %v", o.LeafTimeout)
	}
	if !o.Topology.Enabled() {
		if o.LeafTimeout > 0 {
			return fmt.Errorf("distrib: LeafTimeout requires an aggregator tree (Topology.Shards > 1)")
		}
		if o.ShardQuorum > 0 {
			return fmt.Errorf("distrib: ShardQuorum requires an aggregator tree (Topology.Shards > 1)")
		}
		if o.Faults.TierEnabled() {
			return fmt.Errorf("distrib: fault plan [%v] targets the aggregator tier but no tree is configured (Topology.Shards > 1)", o.Faults)
		}
	} else {
		if o.ShardQuorum < 0 || o.ShardQuorum > o.Topology.Shards {
			return fmt.Errorf("distrib: ShardQuorum %d out of range [0,%d]", o.ShardQuorum, o.Topology.Shards)
		}
		if o.Faults.TierLossy() && o.LeafTimeout <= 0 {
			return fmt.Errorf("distrib: fault plan [%v] can lose shard digests or leaves; set a positive LeafTimeout so the root does not wait forever", o.Faults)
		}
	}
	seen := make(map[int]bool, len(o.Population))
	for _, id := range o.Population {
		if id < 0 || id >= n {
			return fmt.Errorf("distrib: population id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("distrib: duplicate population id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Run executes rounds additional rounds (or async flushes) of any
// engine-backed algorithm over the transport and returns the cumulative
// history: NewService, Run, Close. All model state lives in the worker
// goroutines during a round; evaluation (and, when a checkpoint policy is set
// on the runner, the durable checkpoint write) happens at round barriers when
// every worker is parked. The distributed runner always uses full
// participation: ClientFraction and ClientDropProb apply to the in-process
// engine only — here the cohort shrinks through the failure model instead
// (timeouts, injected faults).
//
// Resume: restore the algorithm first (engine.Runner.ResumeAny) and the run
// continues from the checkpointed round — the server-side checkpoint holds
// every client's model and optimizer state, which the restored hooks carry
// back into the worker goroutines exactly as a real deployment would re-seed
// clients from the next RoundStart. To run until a total, subtract the
// runner's CurrentRound.
func Run(algo fl.Algorithm, rounds int, opts Options) (*fl.History, error) {
	s, err := NewService(algo, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(rounds)
}

// roundPlan is everything one round moves: who takes part and what each of
// them is sent to train against. A synchronous round is a plan with no
// overrides — the whole cohort shares one global; an async buffer flush is a
// plan with one override per chosen client — each trains against the global
// it retained at its last refresh. The wire speaks the same dialect
// (transport.ShardAssign), so the plan maps onto it field for field.
type roundPlan struct {
	t int
	// cohort lists the round's clients, ascending.
	cohort []int
	// shared is the start every member without an override receives; the zero
	// value when every member has one.
	shared planStart
	// override replaces shared for the clients it names.
	override map[int]planStart
	// flush, when non-nil, makes the round an async flush: surviving uploads
	// are staleness-weighted before aggregation and the flush is committed to
	// the engine's async state afterwards.
	flush *engine.AsyncFlushPlan
}

// planStart is one encoded round-opening message and the delta reference
// uploads trained against its global decode with.
type planStart struct {
	frame
	ref []float64
}

// start returns what client c is sent and decoded against.
func (p *roundPlan) start(c int) planStart {
	if o, ok := p.override[c]; ok {
		return o
	}
	return p.shared
}

// ref returns the delta reference client c's upload decodes against.
func (p *roundPlan) ref(c int) []float64 { return p.start(c).ref }

// noun names the plan's unit of work in error text.
func (p *roundPlan) noun() string { return roundNoun(p.flush != nil) }

func roundNoun(flush bool) string {
	if flush {
		return "flush"
	}
	return "round"
}

// planRound plans round t: the synchronous cohort (registered ∩ online)
// sharing round t's front-loaded global, or — with SetAsync — the engine's
// flush plan, restricted to the registered clients under a dynamic population
// (nil eligibility keeps fixed-fleet flushes byte-identical). Planning bills
// nothing and leaves the round counter alone, so a pre-round quorum abort
// leaves no half-open round behind.
func (s *Service) planRound(t int) (*roundPlan, error) {
	codec := s.runner.Codec()
	if s.runner.Async() == nil {
		// Clients see decode(encode(global)); the server must hold the same
		// bits so both sides agree on the delta reference and the run stays
		// bit-identical to the in-process engine.
		global := s.runner.Hooks().GlobalState(t)
		var ref []float64
		if codec != comm.CodecFloat64 && global != nil {
			global = global.ApplyCodec(codec, nil)
			ref = global.Params
		}
		ws, err := encodeRoundStart(t, codec, global)
		if err != nil {
			return nil, err
		}
		return &roundPlan{t: t, cohort: s.cohortAt(t), shared: planStart{ws, ref}}, nil
	}
	var eligible []int
	if s.dynamic {
		eligible = s.reg.Active()
	}
	fp, err := s.runner.AsyncPlanFlushFrom(t, eligible)
	if err != nil {
		return nil, err
	}
	plan := &roundPlan{t: t, cohort: fp.Chosen, flush: fp, override: make(map[int]planStart, len(fp.Chosen))}
	for i, c := range fp.Chosen {
		// The dispatched payload was codec-applied at retention.
		g := fp.Dispatched[i]
		ws, err := encodeRoundStart(t, codec, g)
		if err != nil {
			return nil, err
		}
		start := planStart{frame: ws}
		if g != nil {
			start.ref = g.Params
		}
		plan.override[c] = start
	}
	return plan, nil
}

// roundReport summarizes who the server heard from in one round.
type roundReport struct {
	// cohort is the number of distinct clients whose uploads arrived in
	// time; missing lists the rest, sorted ascending.
	cohort  int
	missing []int
	// lostShards lists the shards whose digest never made it into the
	// round's merge (crashed leaf, late/corrupt digest), sorted ascending.
	// Tree rounds only.
	lostShards []int
	// contributors lists the clients whose uploads a flush aggregated,
	// ascending. Flushes only.
	contributors []int
}

// recordRobustness folds one tolerant round's failure profile into the
// cumulative history (partial cohorts only) and the obs trace (always, so
// healthy chaos rounds are visible too). Expected is the plan's cohort: the
// scheduled fleet, or the flush's planned contributors.
func (s *Service) recordRobustness(plan *roundPlan, rp *roundReport, injected int64) {
	var crashed, timedOut []int
	t, expected, cl, tier := plan.t, len(plan.cohort), s.clients, s.tier
	inLost := make(map[int]bool, len(rp.lostShards))
	for _, sh := range rp.lostShards {
		inLost[sh] = true
	}
	for _, c := range rp.missing {
		switch {
		case s.opts.Faults.CrashesAt(c, t):
			crashed = append(crashed, c)
		case s.tree != nil && inLost[ShardOf(c, s.n, s.opts.Topology.Shards)]:
			// Lost with its whole shard: the per-shard detail in LostShards
			// already accounts for it, so neither client list repeats it.
		default:
			timedOut = append(timedOut, c)
		}
	}
	if rp.cohort < expected || len(rp.lostShards) > 0 {
		s.runner.RecordDegraded(fl.DegradedRound{Round: t, Cohort: rp.cohort, Expected: expected, Missing: rp.missing, LostShards: rp.lostShards})
	}
	s.rec.SetRobustness(obs.Robustness{
		Cohort:         rp.cohort,
		Expected:       expected,
		TimedOut:       timedOut,
		Crashed:        crashed,
		StaleDropped:   int(cl.stale.Load() + tier.stale.Load()),
		DupDropped:     int(cl.dup.Load()),
		CorruptDropped: int(cl.corrupt.Load() + tier.corrupt.Load()),
		UnknownDropped: int(cl.unknown.Load()),
		Retries:        int(cl.retries.Load()),
		LeafTimeouts:   int(tier.timeouts.Load()),
		DigestRetries:  int(tier.retries.Load()),
		DigestDups:     int(tier.dup.Load()),
		ShardsLost:     rp.lostShards,
		FaultsInjected: injected,
	})
}

// serverRound runs the flat server's side of one round plan: fan out
// RoundStart to the cohort (the shared message, or a client's override),
// collect uploads (all of them in strict mode, whatever beats the deadline in
// tolerant mode), aggregate, fan out RoundEnd. A client-reported error aborts
// the round but still produces a RoundEnd so no peer blocks forever.
func (s *Service) serverRound(plan *roundPlan) (*roundReport, error) {
	t := plan.t
	start := func(i int) frame { return plan.start(plan.cohort[i]).frame }
	if err := s.fanFraming(transport.KindRoundStart, t, plan.cohort, start); err != nil {
		return nil, err
	}

	uploads := make([]engine.Upload, 0, len(plan.cohort))
	rungs := s.uploadLadder(plan.noun(), plan.ref, func(u engine.Upload) error {
		uploads = append(uploads, u)
		return nil
	})
	report, roundErr, err := newCollector(s.clients, s.srx, t, plan.cohort, rungs).collect()
	if err != nil {
		return report, err
	}
	if roundErr == nil && s.opts.MinQuorum > 0 && len(uploads) < s.opts.MinQuorum {
		roundErr = fmt.Errorf("%w: %s %d aggregated %d of %d required uploads", ErrQuorumNotMet, plan.noun(), t, len(uploads), s.opts.MinQuorum)
	}

	var bcast *engine.Payload
	if roundErr == nil && len(uploads) > 0 {
		// Aggregate sees uploads sorted by client id, exactly like the
		// in-process engine, so reductions are order-stable regardless of
		// which goroutine finished first.
		sort.Slice(uploads, func(i, j int) bool { return uploads[i].Client < uploads[j].Client })
		bcast, roundErr = aggregate(s.runner, plan, uploads, report)
	}

	end, roundErr, fatal := buildRoundEnd(t, s.runner.Codec(), bcast, roundErr)
	if fatal != nil {
		return report, fatal
	}
	if err := s.fanFraming(transport.KindRoundEnd, t, plan.cohort, func(int) frame { return end }); err != nil && roundErr == nil {
		return report, err
	}
	return report, roundErr
}

// fanFraming sends every cohort member its round-framing message — msg(i)
// for cohort[i], a RoundStart or RoundEnd — over the client fabric: the flat
// server's fan-out and a leaf's, which therefore bill identically. Framing is
// billed for every member regardless of delivery: billing driven by Send
// outcomes would make traffic totals depend on crash timing, breaking the
// same-seed-same-history guarantee. The first send failure is returned when
// the client plane is strict; a tolerant plane's deadline covers the gap.
func (s *Service) fanFraming(kind transport.Kind, t int, cohort []int, msg func(i int) frame) error {
	ledger := s.runner.Ledger()
	coded := s.runner.Codec() != comm.CodecFloat64
	var first error
	for i, c := range cohort {
		f := msg(i)
		e := &transport.Envelope{Kind: kind, From: -1, To: c, Round: t, Payload: f.bytes}
		err := s.tr.server.Send(e)
		billFraming(ledger, f.knowledge, coded, e.WireSize(), f.raw)
		if err != nil && s.clients.strict && first == nil {
			first = err
		}
	}
	return first
}

// aggregate runs the algorithm's Aggregate over the round's surviving
// uploads (sorted by client id). A flush staleness-weights them first and
// reports who contributed, for AsyncCommitFlush.
func aggregate(runner *engine.Runner, plan *roundPlan, uploads []engine.Upload, report *roundReport) (*engine.Payload, error) {
	rc := runner.Context(plan.t)
	if plan.flush != nil {
		for _, u := range uploads {
			report.contributors = append(report.contributors, u.Client)
		}
		uploads = runner.AsyncWeightUploads(plan.flush, uploads)
	}
	return runner.Hooks().Aggregate(rc, uploads)
}

// frame is one encoded round-framing message (a RoundStart or RoundEnd
// payload) with its billing facts: whether it carries knowledge (a global, a
// broadcast) rather than control only, and its raw-equivalent envelope size
// under a compressing codec.
type frame struct {
	bytes     []byte
	knowledge bool
	raw       int
}

// encodeRoundStart encodes one round-opening message carrying global (which
// must already be codec-applied), once per plan: the flat server fans the
// result to its cohort, a leaf aggregator fans the same bytes to its shard.
func encodeRoundStart(t int, codec comm.Codec, global *engine.Payload) (frame, error) {
	gw, err := transport.PayloadToWireIn(global, codec, nil)
	if err != nil {
		return frame{}, err
	}
	msg := transport.RoundStart{Round: t, HasGlobal: global != nil, Global: gw, Codec: uint8(codec)}
	ws := frame{knowledge: msg.HasGlobal}
	if ws.bytes, err = transport.Encode(msg); err != nil {
		return frame{}, err
	}
	if codec != comm.CodecFloat64 && msg.HasGlobal {
		ws.raw = rawWireSize(
			transport.RoundStart{Round: t, HasGlobal: true, Global: transport.PayloadToWire(global)},
			(&transport.Envelope{Payload: ws.bytes}).WireSize())
	}
	return ws, nil
}

// buildRoundEnd encodes one round-close message from an aggregation outcome:
// the broadcast when the round succeeded, the error text when it did not
// (broadcasts are never delta-coded — receivers that missed RoundStart must
// still decode them ref-free). Encode failures fold into the returned
// roundErr; a non-nil fatal aborts the round with no close message, matching
// the flat server's historical behavior.
func buildRoundEnd(t int, codec comm.Codec, bcast *engine.Payload, roundErr error) (end frame, outRoundErr, fatal error) {
	re := transport.RoundEnd{Round: t, Codec: uint8(codec)}
	if roundErr == nil && bcast != nil {
		bw, werr := transport.PayloadToWireIn(bcast, codec, nil)
		if werr != nil {
			roundErr = werr
		} else {
			re.HasBroadcast = true
			re.Broadcast = bw
		}
	}
	if roundErr != nil {
		re.HasBroadcast = false
		re.Broadcast = transport.WirePayload{}
		re.Err = roundErr.Error()
	}
	payload, err := transport.Encode(re)
	if err != nil {
		if roundErr != nil {
			return frame{}, roundErr, roundErr
		}
		return frame{}, nil, err
	}
	end = frame{bytes: payload, knowledge: re.HasBroadcast}
	if codec != comm.CodecFloat64 && re.HasBroadcast {
		end.raw = rawWireSize(
			transport.RoundEnd{Round: t, HasBroadcast: true, Broadcast: transport.PayloadToWire(bcast)},
			(&transport.Envelope{Payload: payload}).WireSize())
	}
	return end, roundErr, nil
}

// billFraming bills one round-framing envelope exactly as the flat server
// does: control traffic when it carries no knowledge, a wire/raw pair under
// a compressing codec, a plain download otherwise. Leaves reuse it so a tree
// run's client-plane ledger stays byte-identical to the flat run's.
func billFraming(ledger *comm.Ledger, hasPayload, coded bool, wire, raw int) {
	switch {
	case !hasPayload:
		ledger.AddControl(wire)
	case coded:
		ledger.AddDownloadRaw(wire, raw)
	default:
		ledger.AddDownload(wire)
	}
}

// rawWireSize returns the envelope wire size msg would occupy encoded as-is —
// used to price the float64raw equivalent of a codec-compressed message into
// the ledger's informational raw columns. The size is computed, not measured:
// nothing is encoded. Best effort: a message the codec does not know falls
// back to the given compressed size so raw totals never undercount the wire.
func rawWireSize(msg any, fallback int) int {
	n, err := transport.EncodedSize(msg)
	if err != nil {
		return fallback
	}
	return transport.EnvelopeHeaderSize + n
}

// clientPeer is one client worker: its connection state (the fault-wrapped
// conn, its receiver pump, the transport's reconnect hook) and the run-wide
// handles its rounds need.
type clientPeer struct {
	id     int
	conn   *faults.Conn
	rx     *receiver
	stats  *faults.Stats
	redial func(id int) (transport.Conn, error) // nil when the transport cannot reconnect (bus)

	runner *engine.Runner
	rec    *obs.Recorder
	opts   *Options
	pl     *plane // the client plane
}

// restart simulates a crash-restart. On TCP the connection is torn down and
// redialed through the join handshake, exactly like a restarted process; the
// fault wrapper persists across the swap so injection streams stay aligned.
// On the bus there is no connection to drop — the restarted client instead
// loses its queued inbox, and whatever arrives later is discarded by round
// gating.
func (p *clientPeer) restart() error {
	if p.redial == nil {
		p.rx.drain()
		return nil
	}
	p.rx.stop()
	p.conn.Inner().Close()
	conn, err := p.redial(p.id)
	if err != nil {
		return fmt.Errorf("distrib: client %d rejoin: %w", p.id, err)
	}
	p.conn.SetInner(conn)
	p.rx = newReceiver(p.conn)
	return nil
}

// work runs the client's per-round protocol until its start channel closes.
// Closing the conn on the way out unblocks the receiver pump, so worker
// shutdown never leaks a goroutine stuck in Recv.
func (p *clientPeer) work(start <-chan int, done chan<- error) {
	defer func() {
		p.rx.stop()
		p.conn.Close()
	}()
	for t := range start {
		done <- p.round(t)
	}
}

// gate validates a server→client envelope against the current round.
// ok=false with a nil error means the envelope was counted and dropped
// (tolerant mode).
func (p *clientPeer) gate(t int, e *transport.Envelope) (ok bool, err error) {
	switch {
	case e.From != -1 || e.To != p.id:
		err = fmt.Errorf("%w: client %d got envelope from %d to %d", ErrPeerMismatch, p.id, e.From, e.To)
	case e.Round != t:
		err = fmt.Errorf("%w: client %d got round %d envelope during round %d", ErrStaleEnvelope, p.id, e.Round, t)
	case e.Kind != transport.KindRoundStart && e.Kind != transport.KindRoundEnd:
		err = fmt.Errorf("client %d: unexpected message kind %v", p.id, e.Kind)
	default:
		return true, nil
	}
	return false, p.pl.reject(&p.pl.stale, err)
}

// round runs one client round: receive RoundStart, train, upload, receive
// RoundEnd, digest. A local hook failure is reported upstream in the upload's
// Err field — the protocol keeps flowing so neither side deadlocks. In
// tolerant mode the client also survives the round passing it by: a recv
// timeout (2× the server's deadline, so the server always gives up first)
// parks it until the next fan-out.
func (p *clientPeer) round(t int) error {
	opts, pl := p.opts, p.pl
	if pl.crashes(p.id, t) {
		p.stats.CountCrash()
		return p.restart()
	}
	if opts.Topology.Enabled() &&
		opts.Faults.LeafCrashesAt(ShardOf(p.id, p.runner.Config().Env.Cfg.NumClients, opts.Topology.Shards), t) {
		// This client's leaf aggregator is crashed for the round, so its
		// RoundStart can never arrive. Skip deterministically — the leaf-plane
		// failure detector — instead of burning the recv deadline.
		return nil
	}
	hooks := p.runner.Hooks()
	rc := p.runner.Context(t)

	wait := 2 * pl.timeout

	var roundErr error
	var endEnv *transport.Envelope
	uploaded := false
	for endEnv == nil && !uploaded {
		e, err := p.rx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			return nil // the round passed this client by
		}
		if err != nil {
			return fmt.Errorf("client %d recv: %w", p.id, err)
		}
		ok, gerr := p.gate(t, e)
		if gerr != nil {
			return gerr
		}
		if !ok {
			continue
		}
		if e.Kind == transport.KindRoundEnd {
			// RoundStart was lost in transit: no training this round, go
			// straight to the broadcast digest so local state stays current.
			endEnv = e
			break
		}
		var startMsg transport.RoundStart
		derr := transport.Decode(e.Payload, &startMsg)
		if derr == nil {
			derr = startMsg.Validate()
		}
		var global *engine.Payload
		if derr == nil && startMsg.HasGlobal {
			// Globals are never delta-coded, so the ref-free decode always
			// applies; the decoded (quantized) params double as the delta
			// reference for this client's upload.
			global, derr = startMsg.Global.ToPayload()
		}
		if derr != nil {
			if err := pl.reject(&pl.corrupt, derr); err != nil {
				return err
			}
			continue
		}
		roundCodec := comm.Codec(startMsg.Codec)
		var refParams []float64
		if global != nil {
			refParams = global.Params
		}
		stopTrain := p.rec.ClientSpan(p.id)
		up, uerr := hooks.LocalUpdate(rc, p.id, global)
		stopTrain()
		ru := transport.RoundUpload{Round: t, Client: p.id}
		if uerr != nil {
			roundErr = uerr
			ru.Err = uerr.Error()
		} else if up != nil {
			if w, werr := transport.PayloadToWireIn(up, roundCodec, refParams); werr != nil {
				roundErr = werr
				ru.Err = werr.Error()
			} else {
				ru.HasPayload = true
				ru.Payload = w
			}
		}
		if serr := p.sendUpload(t, ru); serr != nil {
			if !pl.strict && errors.Is(serr, faults.ErrTransient) {
				// The upload was lost to chaos after exhausting retries;
				// the server's deadline covers the gap.
			} else if roundErr == nil {
				roundErr = serr
			}
		}
		uploaded = true
	}

	for endEnv == nil {
		e, err := p.rx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			return roundErr
		}
		if err != nil {
			if roundErr != nil {
				return roundErr
			}
			return fmt.Errorf("client %d recv: %w", p.id, err)
		}
		ok, gerr := p.gate(t, e)
		if gerr != nil {
			if roundErr != nil {
				return roundErr
			}
			return gerr
		}
		if !ok {
			continue
		}
		if e.Kind != transport.KindRoundEnd {
			// A duplicated RoundStart after the upload.
			if err := pl.reject(&pl.stale, fmt.Errorf("client %d: unexpected message kind %v", p.id, e.Kind)); err != nil {
				return err
			}
			continue
		}
		endEnv = e
	}

	var re transport.RoundEnd
	err := transport.Decode(endEnv.Payload, &re)
	if err == nil {
		err = re.Validate()
	}
	if err != nil {
		if err := pl.reject(&pl.corrupt, err); err != nil {
			return err
		}
		return roundErr
	}
	if roundErr != nil {
		return roundErr
	}
	if re.Err != "" {
		return fmt.Errorf("client %d: server aborted round %d: %s", p.id, t, re.Err)
	}
	if !re.HasBroadcast {
		return nil
	}
	bcast, err := re.Broadcast.ToPayload()
	if err != nil {
		return pl.reject(&pl.corrupt, err)
	}
	stopPublic := p.rec.Span(obs.PhaseClientPublic)
	derr := hooks.Digest(rc, p.id, bcast)
	stopPublic()
	return derr
}

// sendUpload encodes and sends one RoundUpload, retrying transient failures
// on the client plane's backoff schedule.
func (p *clientPeer) sendUpload(t int, ru transport.RoundUpload) error {
	payload, err := transport.Encode(ru)
	if err != nil {
		return err
	}
	e := &transport.Envelope{Kind: transport.KindUpload, From: p.id, To: -1, Round: t, Payload: payload}
	return p.pl.send(uint64(t)*1000+600+uint64(p.id), func(int) error { return p.conn.Send(e) })
}

// receiver pumps a Conn into a channel so callers can apply deadlines to
// Recv. stop() detaches the pump; the pump also exits when the conn errors
// (including the close a worker issues on shutdown), so no goroutine is left
// blocked on a channel send.
type receiver struct {
	ch   chan recvResult
	done chan struct{}
	once sync.Once
}

type recvResult struct {
	e   *transport.Envelope
	err error
}

// errRecvTimeout reports a recv deadline expiring — a normal event in
// tolerant mode, never surfaced to callers of the package.
var errRecvTimeout = errors.New("distrib: recv timeout")

func newReceiver(conn transport.Conn) *receiver {
	r := &receiver{ch: make(chan recvResult, 4), done: make(chan struct{})}
	go func() {
		defer close(r.ch)
		for {
			e, err := conn.Recv()
			select {
			case r.ch <- recvResult{e, err}:
			case <-r.done:
				return
			}
			if err != nil {
				// One peer's dead connection does not end a mux stream — the
				// other peers are still talking and the dead one may redial.
				var gone *peerGoneError
				if !errors.As(err, &gone) {
					return
				}
			}
		}
	}()
	return r
}

// recv returns the next envelope, waiting at most timeout (forever when
// timeout <= 0). A stopped or exhausted receiver reports io.EOF.
func (r *receiver) recv(timeout time.Duration) (*transport.Envelope, error) {
	if timeout <= 0 {
		res, ok := <-r.ch
		if !ok {
			return nil, io.EOF
		}
		return res.e, res.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res, ok := <-r.ch:
		if !ok {
			return nil, io.EOF
		}
		return res.e, res.err
	case <-timer.C:
		return nil, errRecvTimeout
	}
}

// drain discards everything currently buffered without blocking — the
// bus-mode crash semantics (a restarted process has an empty inbox). Late
// arrivals are caught by round gating instead.
func (r *receiver) drain() {
	for {
		select {
		case _, ok := <-r.ch:
			if !ok {
				return
			}
		default:
			return
		}
	}
}

func (r *receiver) stop() { r.once.Do(func() { close(r.done) }) }

// peerGoneError reports that one peer's connection to a fan-in died. A strict
// plane aborts on it; a tolerant one applies its writeOff policy (collect.go).
type peerGoneError struct {
	id  int
	err error
}

func (p *peerGoneError) Error() string {
	return fmt.Sprintf("distrib: peer %d connection lost: %v", p.id, p.err)
}

func (p *peerGoneError) Unwrap() error { return p.err }

// muxConn fans per-client server connections into one Conn: Recv pulls from
// all peers, Send routes by Envelope.To. Registrations are dynamic —
// acceptLoop rebinds a client id to a fresh conn when it redials, closing
// the old one. Pump goroutines deliver through a select on the done channel,
// so Close never strands a pump blocked on the inbox.
type muxConn struct {
	mu    sync.Mutex
	conns map[int]transport.Conn
	inbox chan recvResult
	done  chan struct{}
	once  sync.Once
}

var _ transport.Conn = (*muxConn)(nil)

func newMuxConn(n int) *muxConn {
	return &muxConn{
		conns: make(map[int]transport.Conn, n),
		inbox: make(chan recvResult, n+4),
		done:  make(chan struct{}),
	}
}

// register binds id to conn (replacing and closing any previous conn) and
// starts its pump.
func (m *muxConn) register(id int, conn transport.Conn) {
	m.mu.Lock()
	old := m.conns[id]
	m.conns[id] = conn
	m.mu.Unlock()
	if old != nil {
		old.Close()
	}
	go m.pump(id, conn)
}

func (m *muxConn) pump(id int, conn transport.Conn) {
	for {
		e, err := conn.Recv()
		if err != nil {
			m.mu.Lock()
			current := m.conns[id] == conn
			if current {
				delete(m.conns, id)
			}
			m.mu.Unlock()
			if current {
				m.deliver(recvResult{nil, &peerGoneError{id, err}})
			}
			return
		}
		if !m.deliver(recvResult{e, nil}) {
			return
		}
	}
}

func (m *muxConn) deliver(r recvResult) bool {
	select {
	case m.inbox <- r:
		return true
	case <-m.done:
		return false
	}
}

func (m *muxConn) Send(e *transport.Envelope) error {
	m.mu.Lock()
	conn := m.conns[e.To]
	m.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("distrib: mux send to unknown client %d", e.To)
	}
	return conn.Send(e)
}

func (m *muxConn) Recv() (*transport.Envelope, error) {
	select {
	case r := <-m.inbox:
		return r.e, r.err
	case <-m.done:
		return nil, io.EOF
	}
}

func (m *muxConn) Close() error {
	m.once.Do(func() { close(m.done) })
	m.mu.Lock()
	conns := make([]transport.Conn, 0, len(m.conns))
	for id, c := range m.conns {
		conns = append(conns, c)
		delete(m.conns, id)
	}
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// waitRegistered blocks until n clients have completed the join handshake.
func (m *muxConn) waitRegistered(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		got := len(m.conns)
		m.mu.Unlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("distrib: only %d of %d clients joined within %v", got, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
