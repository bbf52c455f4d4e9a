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
// clients retry transient send failures with bounded exponential backoff.
// Partial rounds are recorded in fl.History.Degraded and in the per-round
// obs Robustness trace, so degradation is measurable rather than silent.
// Because every fault draw is a pure function of the plan seed and the
// message coordinates, two tolerant runs with the same seed accept the same
// uploads in the same rounds and produce identical histories.
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
		return fmt.Errorf("distrib: WireRegistration is not supported with an aggregator tree: wire registration awaits every hello in one inbox, and a tree routes each to its client's leaf")
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
// participation: NewService refuses ClientFraction and ClientDropProb — here
// the cohort shrinks through the failure model instead (timeouts, injected
// faults).
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

// roundPlan is the engine's plan of one round, encoded for the wire: the
// RoundStart each member is sent and the delta reference its upload decodes
// against. A synchronous round's members share one start; a flush member
// holds the global it retained, so each gets its own override. The wire
// speaks the same dialect (transport.ShardAssign), so the plan maps onto it
// field for field.
type roundPlan struct {
	*engine.Plan
	// shared is the start every member without an override receives; the zero
	// value when every member has one.
	shared planStart
	// override replaces shared for the clients it names.
	override map[int]planStart
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

// release returns the plan's encoded starts to the transport's free list,
// once the last of them has been sent.
func (p *roundPlan) release() {
	p.shared.release()
	for _, o := range p.override {
		o.release()
	}
}

// flush reports whether the plan is an async buffer flush (it carries
// staleness weights).
func (p *roundPlan) flush() bool { return p.Weights != nil }

// noun names the plan's unit of work in error text.
func (p *roundPlan) noun() string { return roundNoun(p.flush()) }

func roundNoun(flush bool) string {
	if flush {
		return "flush"
	}
	return "round"
}

// planRound takes round t's plan from the engine, over the registered
// population, and encodes it: one RoundStart for a synchronous round's shared
// start, one per member for a flush. Planning bills nothing and leaves the
// round counter alone, so a pre-round quorum abort leaves no half-open round
// behind.
func (s *Service) planRound(t int) (*roundPlan, error) {
	p, err := s.runner.Plan(t, s.reg.Active())
	if err != nil {
		return nil, err
	}
	rp := &roundPlan{Plan: p, override: make(map[int]planStart, len(p.Cohort))}
	for i, c := range p.Cohort {
		ws, err := encodeRoundStart(t, s.runner.Codec(), p.Starts[i])
		if err != nil {
			return nil, err
		}
		start := planStart{ws, p.Ref(i)}
		if !rp.flush() {
			// A synchronous round's members share Starts[0]: one message.
			rp.shared = start
			break
		}
		rp.override[c] = start
	}
	return rp, nil
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
	// contributors lists the clients whose uploads the round aggregated,
	// ascending — what a flush commits.
	contributors []int
}

// recordRobustness folds one tolerant round's failure profile into the
// cumulative history (partial cohorts only) and the obs trace (always, so
// healthy chaos rounds are visible too). Expected is the plan's cohort: the
// scheduled fleet, or the flush's planned contributors.
func (s *Service) recordRobustness(plan *roundPlan, rp *roundReport, injected int64) {
	var crashed, timedOut []int
	t, expected, cl, tier := plan.Round, len(plan.Cohort), s.clients, s.tier
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
	t, cohort := plan.Round, plan.Cohort
	start := func(i int) frame { return plan.start(cohort[i]).frame }
	err := s.fanFraming(transport.KindRoundStart, t, cohort, start)
	plan.release()
	if err != nil {
		return nil, err
	}

	uploads := make([]engine.Upload, 0, len(cohort))
	rungs := s.uploadLadder(plan.noun(), plan.ref, func(u engine.Upload, _ transport.WirePayload) error {
		uploads = append(uploads, u)
		return nil
	})
	report, roundErr, err := newCollector(s.clients, s.inboxes[0], t, cohort, rungs).collect()
	if err != nil {
		releaseParams(uploads)
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
		report.contributed(uploads)
		bcast, roundErr = plan.Aggregate(uploads)
	}

	end, roundErr, fatal := buildRoundEnd(t, s.runner.Codec(), bcast, roundErr)
	releaseParams(uploads) // Aggregate is done and the broadcast encoded
	if fatal != nil {
		return report, fatal
	}
	err = s.fanFraming(transport.KindRoundEnd, t, cohort, func(int) frame { return end })
	end.release()
	if err != nil && roundErr == nil {
		return report, err
	}
	return report, roundErr
}

// fanFraming sends every cohort member its round-framing message — msg(i)
// for cohort[i], a RoundStart or RoundEnd — over the client fabric: the flat
// server's fan-out and a leaf's, which therefore bill identically. Framing is
// billed for every member regardless of delivery: billing driven by Send
// outcomes would make traffic totals depend on crash timing, breaking the
// same-seed-same-history guarantee. A member the fault plan crashes for the
// round is billed but sent nothing: a crashed process receives nothing, and a
// send would race the bus restart's drain, leaving the stale count a replay
// records to scheduling. The first send failure is
// returned when the client plane is strict; a tolerant plane's deadline
// covers the gap. Send borrows its envelope, so one envelope carries every
// member's copy.
func (s *Service) fanFraming(kind transport.Kind, t int, cohort []int, msg func(i int) frame) error {
	ledger := s.runner.Ledger()
	coded := s.runner.Codec() != comm.CodecFloat64
	var first error
	e := &transport.Envelope{Kind: kind, From: -1, Round: t}
	for i, c := range cohort {
		f := msg(i)
		e.To, e.Payload = c, f.bytes
		billFraming(ledger, f.knowledge, coded, e.WireSize(), f.raw)
		if s.clients.crashes(c, t) {
			continue
		}
		if err := s.tr.send(e); err != nil && s.clients.strict && first == nil {
			first = err
		}
	}
	return first
}

// contributed records the clients whose uploads the round aggregates.
func (rp *roundReport) contributed(uploads []engine.Upload) {
	for _, u := range uploads {
		rp.contributors = append(rp.contributors, u.Client)
	}
}

// frame is one encoded round-framing message (a RoundStart or RoundEnd
// payload) with its billing facts: whether it carries knowledge (a global, a
// broadcast) rather than control only, and its raw-equivalent envelope size
// under a compressing codec. A frame encoded here holds its bytes in a
// transport free-list buffer, owned by enc until release; a leaf's frames
// are bytes it decoded out of the root's messages and own nothing.
type frame struct {
	bytes     []byte
	knowledge bool
	raw       int
	enc       *transport.Envelope
}

// encodeFrame encodes msg into a buffer from the transport's free list.
func encodeFrame(msg any) (frame, error) {
	enc := &transport.Envelope{}
	if err := enc.Encode(msg); err != nil {
		return frame{}, err
	}
	return frame{bytes: enc.Payload, enc: enc}, nil
}

// release returns f's buffer to the free list after its last Send.
func (f frame) release() { f.enc.Release() }

// encodeRoundStart encodes one round-opening message carrying global (which
// must already be codec-applied), once per plan: the flat server fans the
// result to its cohort, a leaf aggregator fans the same bytes to its shard.
func encodeRoundStart(t int, codec comm.Codec, global *engine.Payload) (frame, error) {
	gw, err := transport.PayloadToWireIn(global, codec, nil)
	if err != nil {
		return frame{}, err
	}
	msg := transport.RoundStart{Round: t, HasGlobal: global != nil, Global: gw, Codec: uint8(codec)}
	ws, err := encodeFrame(msg)
	if err != nil {
		return frame{}, err
	}
	ws.knowledge = msg.HasGlobal
	if codec != comm.CodecFloat64 && msg.HasGlobal {
		ws.raw = rawWireSize(&transport.RoundStart{Round: t, HasGlobal: true}, global,
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
	end, err := encodeFrame(re)
	if err != nil {
		if roundErr != nil {
			return frame{}, roundErr, roundErr
		}
		return frame{}, nil, err
	}
	end.knowledge = re.HasBroadcast
	if codec != comm.CodecFloat64 && re.HasBroadcast {
		end.raw = rawWireSize(&transport.RoundEnd{Round: t, HasBroadcast: true}, bcast,
			(&transport.Envelope{Payload: end.bytes}).WireSize())
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

// rawWireSize returns the envelope wire size msg would occupy carrying p
// float64raw — used to price the float64raw equivalent of a codec-compressed
// message into the ledger's informational raw columns. The size is computed
// from p's own slices (transport.RawSize): nothing is encoded and no raw form
// is built. Best effort: a message the codec does not know falls back to the
// given compressed size so raw totals never undercount the wire.
func rawWireSize(msg any, p *engine.Payload, fallback int) int {
	n, err := transport.RawSize(msg, p)
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
	// vectors lends the round's hooks their upload vectors.
	vectors vectorLease
}

// vectorLease hands out vectors from the transport's list and remembers
// them, so that their borrower returns exactly the vectors it took.
type vectorLease struct{ taken [][]float64 }

func (l *vectorLease) take(n int) []float64 {
	v := transport.Vector(n)
	l.taken = append(l.taken, v)
	return v
}

// release returns every vector taken since the last release.
func (l *vectorLease) release() {
	for i, v := range l.taken {
		transport.ReleaseVector(v)
		l.taken[i] = nil
	}
	l.taken = l.taken[:0]
}

// restart simulates a crash-restart. On TCP the connection is torn down and
// redialed through the join handshake, exactly like a restarted process; the
// fault wrapper persists across the swap so injection streams stay aligned.
// On the bus there is no connection to drop — the restarted client instead
// loses its queued inbox, and whatever arrives later is discarded by round
// gating.
func (p *clientPeer) restart() error {
	if p.redial == nil {
		p.rx.drain(nil)
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
	// The upload's vectors come from the transport's list, and go back with
	// the decoded global's once the upload is sent.
	rc := p.runner.Context(t).WithVectors(p.vectors.take)

	var roundErr error
	var endEnv *transport.Envelope
	uploaded := false
	for endEnv == nil && !uploaded {
		e, err := p.recv()
		if errors.Is(err, errRecvTimeout) {
			return nil // the round passed this client by
		}
		if err != nil {
			return fmt.Errorf("client %d recv: %w", p.id, err)
		}
		ok, gerr := p.gate(t, e)
		if !ok {
			e.Release()
			if gerr != nil {
				return gerr
			}
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
		e.Release()
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
			transport.ReleaseVector(startMsg.Global.Params)
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
		serr := p.sendUpload(t, ru)
		// The upload is encoded: nothing reads the global's params (the delta
		// reference included) or the upload's own vectors any more.
		if global != nil {
			transport.ReleaseVector(global.Params)
		}
		p.vectors.release()
		if serr != nil {
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
		e, err := p.recv()
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
		if !ok {
			e.Release()
			if gerr == nil {
				continue
			}
			if roundErr != nil {
				return roundErr
			}
			return gerr
		}
		if e.Kind != transport.KindRoundEnd {
			// A duplicated RoundStart after the upload.
			e.Release()
			if err := pl.reject(&pl.stale, fmt.Errorf("client %d: unexpected message kind %v", p.id, e.Kind)); err != nil {
				return err
			}
			continue
		}
		endEnv = e
	}

	var re transport.RoundEnd
	err := transport.Decode(endEnv.Payload, &re)
	endEnv.Release()
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

// recv returns the worker's next envelope. On a plane with a deadline it waits
// at most twice the server's, armed afresh per call, so the server always
// gives up first.
func (p *clientPeer) recv() (*transport.Envelope, error) {
	expired, stop := p.pl.timer(2 * p.pl.timeout)
	defer stop()
	return p.rx.recv(expired)
}

// sendUpload encodes and sends one RoundUpload, retrying transient failures
// on the client plane's backoff schedule. The frame goes back to the
// transport's free list after the last attempt: Send only borrows it.
func (p *clientPeer) sendUpload(t int, ru transport.RoundUpload) error {
	e := &transport.Envelope{Kind: transport.KindUpload, From: p.id, To: -1, Round: t}
	if err := e.Encode(ru); err != nil {
		return err
	}
	defer e.Release()
	return p.pl.send(uint64(t)*1000+600+uint64(p.id), func(int) error { return p.conn.Send(e) })
}

// inbox is one consumer's queue of arrivals — the flat server's, a leaf's,
// the root's, or a client worker's — read with a deadline. Each envelope in
// it is the reader's to Release.
type inbox chan recvResult

type recvResult struct {
	e   *transport.Envelope
	err error
}

// errRecvTimeout reports a recv deadline expiring — a normal event in
// tolerant mode, never surfaced to callers of the package.
var errRecvTimeout = errors.New("distrib: recv timeout")

// recv returns the next arrival, or errRecvTimeout once expired fires; a nil
// expired waits forever. A closed inbox reports io.EOF.
func (in inbox) recv(expired <-chan time.Time) (*transport.Envelope, error) {
	select {
	case res, ok := <-in:
		if !ok {
			return nil, io.EOF
		}
		return res.e, res.err
	case <-expired:
		return nil, errRecvTimeout
	}
}

// drain discards everything currently buffered without blocking, showing
// each envelope to seen (when non-nil) first. A restarted process has an
// empty inbox; late arrivals are caught by round gating instead.
func (in inbox) drain(seen func(*transport.Envelope)) {
	for {
		select {
		case res, ok := <-in:
			if !ok {
				return
			}
			if seen != nil && res.e != nil {
				seen(res.e)
			}
			res.e.Release()
		default:
			return
		}
	}
}

// receiver is a client worker's inbox and the pump that feeds it from the
// worker's conn. stop() detaches the pump; the pump also exits when the conn
// errors (including the close a worker issues on shutdown), so no goroutine
// is left blocked on a channel send. The pump reads ahead of its caller and
// releases an envelope it still holds when it exits.
type receiver struct {
	inbox
	done chan struct{}
	once sync.Once
}

func newReceiver(conn transport.Conn) *receiver {
	r := &receiver{inbox: make(inbox, 4), done: make(chan struct{})}
	go func() {
		defer close(r.inbox)
		for {
			e, err := conn.Recv()
			select {
			case r.inbox <- recvResult{e, err}:
			case <-r.done:
				e.Release()
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return r
}

func (r *receiver) stop() { r.once.Do(func() { close(r.done) }) }

// fanIn is a fabric's aggregator end: the goroutines that read its
// connections (the bus's server endpoint, or one per client socket) and push
// each arrival straight into the inbox route names for its sender. A pump
// hands each envelope to the inbox's owner and releases one it still holds
// when the fabric stops. stop closes the inboxes only after every pump has
// exited, so no pump sends on a closed channel and every consumer then reads
// io.EOF.
type fanIn struct {
	route   func(from int) inbox
	inboxes []inbox
	done    chan struct{}
	pumps   sync.WaitGroup
	once    sync.Once
}

// deliver hands r to in unless the fabric stops first.
func (f *fanIn) deliver(in inbox, r recvResult) bool {
	select {
	case in <- r:
		return true
	case <-f.done:
		return false
	}
}

// pump reads conn until it fails, delivering each envelope by its sender,
// then reports the failure to lost. The caller has counted it in f.pumps.
func (f *fanIn) pump(conn transport.Conn, lost func(error)) {
	defer f.pumps.Done()
	for {
		e, err := conn.Recv()
		if err != nil {
			lost(err)
			return
		}
		if !f.deliver(f.route(e.From), recvResult{e, nil}) {
			e.Release()
			return
		}
	}
}

// fail delivers a terminal fabric error to every inbox: each consumer's
// collect must observe the fabric dying.
func (f *fanIn) fail(err error) {
	for _, in := range f.inboxes {
		if !f.deliver(in, recvResult{nil, err}) {
			return
		}
	}
}

// stop ends delivery after the fabric's connections are closed: it waits
// for every pump to exit, then closes the inboxes. Idempotent.
func (f *fanIn) stop() {
	f.once.Do(func() {
		close(f.done)
		f.pumps.Wait()
		for _, in := range f.inboxes {
			close(in)
		}
	})
}

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

// muxConn is the TCP fabric's aggregator end: it routes sends over the
// per-client server connections by Envelope.To and runs one fan-in pump per
// connection. Registrations are dynamic — acceptLoop rebinds a client id to a
// fresh conn when it redials, closing the old one.
type muxConn struct {
	in     *fanIn
	mu     sync.Mutex
	conns  map[int]transport.Conn
	closed bool
}

// register binds id to conn (replacing and closing any previous conn) and
// starts its pump; after close it refuses the conn.
func (m *muxConn) register(id int, conn transport.Conn) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	old := m.conns[id]
	m.conns[id] = conn
	m.in.pumps.Add(1)
	m.mu.Unlock()
	if old != nil {
		old.Close()
	}
	go m.in.pump(conn, func(err error) { m.lost(id, conn, err) })
}

// lost reports a dead connection as its peer's loss, unless a redial already
// replaced it or the fabric is closing.
func (m *muxConn) lost(id int, conn transport.Conn, err error) {
	m.mu.Lock()
	current := m.conns[id] == conn
	if current {
		delete(m.conns, id)
	}
	m.mu.Unlock()
	if current {
		m.in.deliver(m.in.route(id), recvResult{nil, &peerGoneError{id, err}})
	}
}

func (m *muxConn) send(e *transport.Envelope) error {
	m.mu.Lock()
	conn := m.conns[e.To]
	m.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("distrib: mux send to unknown client %d", e.To)
	}
	return conn.Send(e)
}

// close refuses further registrations and closes every registered conn,
// which ends its pump without a peer-loss report.
func (m *muxConn) close() {
	m.mu.Lock()
	m.closed = true
	conns := make([]transport.Conn, 0, len(m.conns))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	clear(m.conns)
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
