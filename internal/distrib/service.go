package distrib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Service is the long-lived form of the distributed runtime: it owns a
// client Registry, takes each round's plan from the engine over the
// currently registered population (engine.Runner.Plan), and exposes the hooks
// a control plane needs — a Barrier callback at every round boundary (all
// workers parked, safe to checkpoint), a live Status snapshot, and the
// Join/Leave registration API.
// Run is NewService + Run + Close; a service with the full fleet pre-seeded
// into its registry and no availability trace runs a fixed cohort.
type Service struct {
	runner *engine.Runner
	opts   Options
	n      int
	// dynamic marks a run whose population can differ from the fixed full
	// fleet: a partial initial population, wire registration, or an
	// availability trace. Only dynamic runs record churn traces, so legacy
	// runs keep their golden trace schema.
	dynamic bool
	rec     *obs.Recorder
	tr      *transportParts
	// inboxes are the client plane's: one per shard, the flat server's alone
	// when there is no tree. Service.inbox routes every arrival to one.
	inboxes []inbox
	reg     *Registry
	peers   map[int]*clientPeer
	start   map[int]chan int
	done    chan error
	// clients and tier are the two planes' failure models and counters
	// (collect.go); tier is idle in a flat run.
	clients, tier *plane
	fstats        *faults.Stats
	// tree and root are the aggregator-tree state when Options.Topology is
	// enabled (nil for the flat runtime); leafStart fans round indices to the
	// leaf workers exactly as start fans them to client workers.
	tree      *treeParts
	root      *root
	leafStart []chan int

	roundOpen atomic.Bool
	trOnce    sync.Once
	shutOnce  sync.Once

	mu     sync.Mutex
	status Status
}

// Status is a point-in-time snapshot of the service, refreshed at every
// round barrier (and once more at teardown, after pending registrations are
// drained).
type Status struct {
	// Algo names the running algorithm.
	Algo string `json:"algo"`
	// Round is the next round index the service will run (equals the number
	// of completed rounds).
	Round int `json:"round"`
	// Registered is the registry population; Online is the number of clients
	// the availability trace puts online fleet-wide at Round; Cohort is the
	// number the round actually schedules (registered ∩ online).
	Registered int `json:"registered"`
	Online     int `json:"online"`
	Cohort     int `json:"cohort"`
	// Shards reports per-leaf health in tree mode (nil for flat runs): which
	// round each leaf last digested, how often it retried, and how many
	// rounds lost its shard — enough for an operator to spot a sick leaf.
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth is one leaf aggregator's liveness profile, refreshed as the
// root collects digests.
type ShardHealth struct {
	// Shard is the leaf's shard index.
	Shard int `json:"shard"`
	// LastDigestRound is the most recent round whose digest the root accepted
	// from this leaf (-1 before the first).
	LastDigestRound int `json:"last_digest_round"`
	// Retries counts the leaf's digest send retries across the run.
	Retries int `json:"retries"`
	// Lost counts the rounds that lost this shard (crash, timeout, or
	// corrupt digest).
	Lost int `json:"lost"`
}

// NewService builds the transport fabric, registry, and parked client
// workers for an engine-backed algorithm. The caller must Close the service;
// Run may be called at most once.
func NewService(algo fl.Algorithm, opts Options) (*Service, error) {
	return newService(algo, opts, faults.OSClock)
}

// newService is NewService with every wait of the run timed on clk.
func newService(algo fl.Algorithm, opts Options, clk faults.Clock) (*Service, error) {
	runner, err := engine.Of(algo)
	if err != nil {
		return nil, err
	}
	if opts.Mode == "" {
		opts.Mode = ModeBus
	}
	n := runner.Config().Env.Cfg.NumClients
	if err := opts.validate(n); err != nil {
		return nil, err
	}
	// The cohort shrinks through the failure model here, not the in-process
	// participation knobs — refuse them rather than silently run everyone.
	if f := runner.Config().ClientFraction; f != 0 && f != 1 {
		return nil, fmt.Errorf("distrib: ClientFraction %v unsupported: distributed runs schedule every registered online client", f)
	}
	if p := runner.Config().ClientDropProb; p != 0 {
		return nil, fmt.Errorf("distrib: ClientDropProb %v unsupported: distributed runs lose clients through Options.Faults", p)
	}
	// A nil Options.Recorder keeps whatever recorder the runner already has.
	if opts.Recorder != nil {
		runner.SetRecorder(opts.Recorder)
	}
	s := &Service{
		runner:  runner,
		opts:    opts,
		n:       n,
		dynamic: opts.Population != nil || opts.WireRegistration || runner.Availability() != nil,
		rec:     runner.Recorder(),
		peers:   make(map[int]*clientPeer),
		start:   make(map[int]chan int),
		done:    make(chan error, n),
		fstats:  &faults.Stats{},
	}
	s.clients, s.tier = newPlanes(&s.opts, clk)
	ledger := runner.Ledger()

	// Reconnect handshakes are control traffic; they are only billable while
	// a round is open (the ledger has no row before the first StartRound, and
	// the setup handshakes happen before the run's first round).
	billControl := func(bytes int) {
		if s.roundOpen.Load() {
			ledger.AddControl(bytes)
		}
	}
	// An inbox must absorb a full fleet's uploads (a leaf's, its shard's twice
	// over) plus tolerant-mode stragglers and registration traffic.
	s.inboxes = make([]inbox, max(1, opts.Topology.Shards))
	for i := range s.inboxes {
		buf := n + 4
		if opts.Topology.Enabled() {
			buf = max(buf, 2*(n/len(s.inboxes)+1)+16)
		}
		s.inboxes[i] = make(inbox, buf)
	}
	if s.tr, err = buildTransport(opts.Mode, n, s.inboxes, s.inbox, billControl); err != nil {
		return nil, err
	}

	initial := opts.Population
	if opts.WireRegistration {
		// Nobody pre-seeded: the population arrives as hello envelopes.
		initial = []int{}
	}
	if s.reg, err = NewRegistry(n, initial); err != nil {
		s.tr.cleanup()
		return nil, err
	}

	runner.SetHistoryLabelSuffix("(distributed)")

	// One worker per universe id, registered or not: a client that joins
	// mid-run already has its endpoint parked on the start channel, the
	// in-process equivalent of a fleet larger than any one cohort.
	for c := 0; c < n; c++ {
		p := &clientPeer{
			id:     c,
			conn:   faults.Wrap(s.tr.clients[c], opts.Faults, c, s.fstats, clk),
			stats:  s.fstats,
			redial: s.tr.redial,
			runner: runner,
			rec:    s.rec,
			opts:   &s.opts,
			pl:     s.clients,
		}
		p.rx = newReceiver(p.conn)
		s.peers[c] = p
		s.start[c] = make(chan int, 1)
		go p.work(s.start[c], s.done)
	}
	if opts.Topology.Enabled() {
		if err := s.setupTree(); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.setStatus(runner.CurrentRound())
	return s, nil
}

// Run executes rounds additional rounds (or async flushes) and returns the
// cumulative history. Call at most once per service. However it returns — a
// Barrier error such as an operator's quit included — the last policy
// checkpoint is durable by then, or its write error is part of the returned
// error.
func (s *Service) Run(rounds int) (hist *fl.History, err error) {
	hist = s.runner.History()
	defer s.rec.Finish()
	defer func() {
		if werr := s.runner.WaitCheckpoint(); werr != nil {
			err = errors.Join(err, werr)
		}
	}()
	if s.opts.WireRegistration {
		if err := s.registerPopulation(); err != nil {
			return hist, err
		}
	}
	for i := 0; i < rounds && err == nil; i++ {
		err = s.runRound()
	}
	// Shutdown drain (see drainRegistrations): registrations still queued in
	// the inboxes must not be lost on quit.
	s.drainRegistrations()
	return hist, err
}

// runRound is the one round loop's body, synchronous round and async flush
// alike: barrier hook, fold in pending registrations, plan, check quorum,
// fan out to the plan's cohort, serve the round, fan in, commit the plan with
// the clients whose uploads were aggregated. Non-chosen clients never see a
// start signal and stay parked.
func (s *Service) runRound() error {
	t := s.runner.CurrentRound()
	// Fold registrations in before the gate runs, so a paused service's
	// status reports who is registered; apply again after it, so arrivals
	// during a long pause join this round rather than the next.
	joins, leaves := s.reg.ApplyPending()
	s.setStatus(t)
	if s.opts.Barrier != nil {
		if err := s.opts.Barrier(t); err != nil {
			return err
		}
	}
	j2, l2 := s.reg.ApplyPending()
	joins, leaves = joins+j2, leaves+l2
	plan, err := s.planRound(t)
	if err != nil {
		return err
	}
	s.setStatus(t)
	// Fail fast on a hopeless population instead of opening a round that can
	// only time out: quorum is checked before the round begins, so an abort
	// leaves the round counter, the ledger and the history in step.
	if s.opts.MinQuorum > 0 && len(plan.Cohort) < s.opts.MinQuorum {
		return fmt.Errorf("%w: %s %d scheduled %d clients, quorum %d",
			ErrQuorumNotMet, plan.noun(), t, len(plan.Cohort), s.opts.MinQuorum)
	}
	if err := s.preRoundShardQuorum(t); err != nil {
		return err
	}
	s.runner.BeginRound()
	s.roundOpen.Store(true)
	s.clients.reset()
	s.tier.reset()
	faultBase := s.fstats.Snapshot().Total()
	s.rec.SetWorkers(len(plan.Cohort))
	for _, c := range plan.Cohort {
		s.start[c] <- t
	}
	var report *roundReport
	var serverErr, firstErr error
	if s.tree != nil {
		for _, ch := range s.leafStart {
			ch <- t
		}
		report, serverErr = s.root.round(plan)
	} else {
		report, serverErr = s.serverRound(plan)
	}
	if serverErr != nil {
		// Unblock any client still parked on Recv before fanning in.
		s.closeTransport()
	}
	if s.tree != nil {
		// Leaves finish (fan the round close, report in) before their
		// clients can; drain them first so a leaf-side failure closes the
		// transport before the client fan-in would deadlock on it.
		s.drainLeafDone(&firstErr)
		if firstErr != nil {
			s.closeTransport()
		}
	}
	for range plan.Cohort {
		if err := <-s.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.roundOpen.Store(false)
	if serverErr != nil {
		return serverErr
	}
	if firstErr != nil {
		return firstErr
	}
	plan.Commit(report.contributors)
	if !s.clients.strict || !s.tier.strict {
		s.recordRobustness(plan, report, s.fstats.Snapshot().Total()-faultBase)
	}
	if s.dynamic {
		s.rec.SetChurn(obs.Churn{
			Registered: s.reg.Size(),
			Online:     len(s.runner.Online(t, nil)),
			Cohort:     len(plan.Cohort),
			Joins:      joins,
			Leaves:     leaves,
		})
	}
	// All workers parked: evaluate (and checkpoint) safely.
	return s.runner.CompleteRound()
}

// preRoundShardQuorum fails fast when the fault schedule already dooms too
// many leaves this round to meet ShardQuorum — the tier-plane mirror of the
// pre-round MinQuorum check, so a hopeless tree round aborts before any
// fan-out instead of burning its deadline.
func (s *Service) preRoundShardQuorum(t int) error {
	if s.tree == nil || s.opts.ShardQuorum <= 0 {
		return nil
	}
	shards := s.opts.Topology.Shards
	doomed := 0
	for i := 0; i < shards; i++ {
		if s.tier.crashes(i, t) {
			doomed++
		}
	}
	if shards-doomed < s.opts.ShardQuorum {
		return fmt.Errorf("%w: round %d has %d of %d leaves scheduled to crash, quorum %d",
			ErrShardQuorumNotMet, t, doomed, shards, s.opts.ShardQuorum)
	}
	return nil
}

// Join registers client id with the service over the wire: a hello envelope
// travels the client's own connection (beneath the chaos wrapper, so
// registration is never lost to injected faults) and lands in the registry
// at the next round barrier. Safe to call from another goroutine mid-run.
func (s *Service) Join(id int) error {
	return s.sendRegistration(id, transport.KindHello)
}

func (s *Service) sendRegistration(id int, kind transport.Kind) error {
	p := s.peers[id]
	if p == nil {
		return fmt.Errorf("distrib: %v for id %d outside universe [0,%d)", kind, id, s.n)
	}
	e := &transport.Envelope{Kind: kind, From: id, To: -1, Round: -1}
	if err := p.conn.Inner().Send(e); err != nil {
		return fmt.Errorf("distrib: client %d %v: %w", id, kind, err)
	}
	return nil
}

// registerPopulation performs wire registration: every initial-population
// client sends a real hello, and the server blocks until all of them have
// arrived (pre-round, so the handshakes are unbilled — the ledger has no
// open row yet). It needs no deadline: a hello travels beneath the chaos
// wrapper, so no fault plan loses one, and a connection that dies arrives as
// its peer's loss and fails the run at once.
func (s *Service) registerPopulation() error {
	pop := s.opts.Population
	if pop == nil {
		pop = make([]int, s.n)
		for c := range pop {
			pop[c] = c
		}
	}
	for _, id := range pop {
		if err := s.Join(id); err != nil {
			return err
		}
	}
	joined := make(map[int]bool, len(pop))
	for len(joined) < len(pop) {
		e, err := s.inboxes[0].recv(nil)
		if err != nil {
			return fmt.Errorf("distrib: await registrations: %w", err)
		}
		if s.register(e) && e.Kind == transport.KindHello && e.From >= 0 && e.From < s.n {
			joined[e.From] = true
		}
		// Anything else arriving before the first round is leftover traffic;
		// round gating would discard it anyway.
		e.Release()
	}
	return nil
}

// register queues e's join or leave into the registry, applied at the next
// barrier, and reports whether e was registration traffic at all.
func (s *Service) register(e *transport.Envelope) bool {
	switch e.Kind {
	case transport.KindHello:
		s.reg.QueueJoin(e.From)
	case transport.KindGoodbye:
		s.reg.QueueLeave(e.From)
	default:
		return false
	}
	return true
}

// inbox picks the client-plane inbox an arrival from id from lands in: its
// shard's, or the first for an id no shard owns, so an unattributable
// envelope is adjudicated exactly once. A flat server is the one-shard case.
func (s *Service) inbox(from int) inbox {
	if from < 0 || from >= s.n {
		return s.inboxes[0]
	}
	return s.inboxes[ShardOf(from, s.n, len(s.inboxes))]
}

// drainRegistrations empties whatever the inboxes already buffered, keeping
// only registration messages, then folds them in — the shutdown drain: a
// hello that reached the server before quit is reflected in the final status
// (and in the registry a save would capture) instead of being dropped with
// the inbox. Non-blocking.
func (s *Service) drainRegistrations() {
	for _, in := range s.inboxes {
		in.drain(func(e *transport.Envelope) { s.register(e) })
	}
	s.applyFinal()
}

func (s *Service) applyFinal() {
	s.reg.ApplyPending()
	s.setStatus(s.runner.CurrentRound())
}

// Status returns the latest barrier snapshot. Safe from any goroutine — the
// control plane's ping/status handler reads it while the round loop runs.
func (s *Service) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.status
	// Shard health is attached live rather than at the barrier, so an
	// operator polling mid-round sees a leaf sicken as it happens.
	if s.root != nil {
		st.Shards = s.root.health()
	}
	return st
}

func (s *Service) setStatus(t int) {
	st := Status{
		Algo:       s.runner.Name(),
		Round:      t,
		Registered: s.reg.Size(),
		Online:     len(s.runner.Online(t, nil)),
		Cohort:     len(s.runner.Online(t, s.reg.Active())),
	}
	s.mu.Lock()
	s.status = st
	s.mu.Unlock()
}

func (s *Service) closeTransport() {
	s.trOnce.Do(func() {
		s.tr.cleanup()
		if s.tree != nil {
			s.tree.upper.cleanup()
		}
	})
}

// Close tears the service down: parks no more rounds, stops every worker
// (client and leaf), and closes both transport fabrics. Idempotent.
func (s *Service) Close() {
	s.shutOnce.Do(func() {
		for _, ch := range s.start {
			close(ch)
		}
		for _, ch := range s.leafStart {
			close(ch)
		}
	})
	s.closeTransport()
}
