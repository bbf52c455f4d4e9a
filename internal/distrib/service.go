package distrib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Service is the long-lived form of the distributed runtime: it owns a
// client Registry, plans each round's cohort from the currently registered
// population intersected with the availability trace (or, with SetAsync, from
// the engine's flush planner), and exposes the hooks a control plane needs —
// a Barrier callback at every round boundary (all workers parked, safe to
// checkpoint), a live Status snapshot, and the Join/Leave registration API.
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
	srx     *receiver
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
	if opts.Topology.Compact {
		if runner.Async() != nil {
			return nil, fmt.Errorf("distrib: compact tree reduction is incompatible with asynchronous flushes: staleness weighting needs per-client uploads at the root")
		}
		if _, ok := runner.CompactReducer(); !ok {
			return nil, fmt.Errorf("distrib: %s does not implement engine.CompactReducer; compact tree reduction needs a streaming fold", runner.Name())
		}
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
	}
	s.clients, s.tier = newPlanes(&s.opts)
	ledger := runner.Ledger()

	// Reconnect handshakes are control traffic; they are only billable while
	// a round is open (the ledger has no row before the first StartRound, and
	// the setup handshakes happen before the run's first round).
	billControl := func(bytes int) {
		if s.roundOpen.Load() {
			ledger.AddControl(bytes)
		}
	}
	if s.tr, err = buildTransport(opts.Mode, n, billControl); err != nil {
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
	s.fstats = opts.FaultStats
	if s.fstats == nil {
		s.fstats = &faults.Stats{}
	}

	// One worker per universe id, registered or not: a client that joins
	// mid-run already has its endpoint parked on the start channel, the
	// in-process equivalent of a fleet larger than any one cohort.
	for c := 0; c < n; c++ {
		p := &clientPeer{
			id:     c,
			conn:   faults.Wrap(s.tr.clients[c], opts.Faults, c, s.fstats),
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
	s.srx = newReceiver(s.tr.server)
	if opts.Topology.Enabled() {
		if err := s.setupTree(); err != nil {
			s.srx.stop()
			s.tr.cleanup()
			return nil, err
		}
	}
	s.setStatus(runner.CurrentRound())
	return s, nil
}

// Run executes rounds additional rounds (or async flushes) and returns the
// cumulative history. Call at most once per service.
func (s *Service) Run(rounds int) (*fl.History, error) {
	hist := s.runner.History()
	defer s.rec.Finish()
	if s.opts.WireRegistration {
		if err := s.registerPopulation(); err != nil {
			return hist, err
		}
	}
	var err error
	for i := 0; i < rounds && err == nil; i++ {
		err = s.runRound()
	}
	// Shutdown drain (see drainRegistrations): registrations still queued in
	// the receiver must not be lost on quit.
	s.drainRegistrations()
	return hist, err
}

// runRound is the one round loop's body, synchronous round and async flush
// alike: barrier hook, fold in pending registrations, plan, check quorum,
// fan out to the plan's cohort, serve the round, fan in. Non-chosen clients
// never see a start signal and stay parked.
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
	if s.opts.MinQuorum > 0 && len(plan.cohort) < s.opts.MinQuorum {
		return fmt.Errorf("%w: %s %d scheduled %d clients, quorum %d",
			ErrQuorumNotMet, plan.noun(), t, len(plan.cohort), s.opts.MinQuorum)
	}
	if err := s.preRoundShardQuorum(t); err != nil {
		return err
	}
	s.runner.BeginRound()
	s.roundOpen.Store(true)
	s.clients.reset()
	s.tier.reset()
	faultBase := s.fstats.Snapshot().Total()
	s.rec.SetWorkers(len(plan.cohort))
	for _, c := range plan.cohort {
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
	for range plan.cohort {
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
	if plan.flush != nil {
		s.runner.AsyncCommitFlush(plan.flush, report.contributors)
	}
	if !s.clients.strict || !s.tier.strict {
		s.recordRobustness(plan, report, s.fstats.Snapshot().Total()-faultBase)
	}
	if s.dynamic {
		s.rec.SetChurn(obs.Churn{
			Registered: s.reg.Size(),
			Online:     len(s.runner.Online(t)),
			Cohort:     len(plan.cohort),
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

// cohortAt returns round t's cohort: the registered population intersected
// with the clients the availability trace puts online, sorted ascending.
func (s *Service) cohortAt(t int) []int {
	active := s.reg.Active()
	tr := s.runner.Availability()
	if tr == nil {
		return active
	}
	kept := make([]int, 0, len(active))
	for _, c := range active {
		if tr.Online(c, t) {
			kept = append(kept, c)
		}
	}
	return kept
}

// Join registers client id with the service over the wire: a hello envelope
// travels the client's own connection (beneath the chaos wrapper, so
// registration is never lost to injected faults) and lands in the registry
// at the next round barrier. Safe to call from another goroutine mid-run.
func (s *Service) Join(id int) error {
	return s.sendRegistration(id, transport.KindHello)
}

// Leave deregisters client id: the goodbye takes effect at the next round
// barrier, after which the client is no longer scheduled into cohorts.
func (s *Service) Leave(id int) error {
	return s.sendRegistration(id, transport.KindGoodbye)
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
// open row yet).
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
	deadline := time.Now().Add(10 * time.Second)
	for len(joined) < len(pop) {
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("distrib: only %d of %d clients registered within 10s", len(joined), len(pop))
		}
		e, err := s.srx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			continue
		}
		if err != nil {
			return fmt.Errorf("distrib: await registrations: %w", err)
		}
		switch e.Kind {
		case transport.KindHello:
			s.reg.QueueJoin(e.From)
			if e.From >= 0 && e.From < s.n {
				joined[e.From] = true
			}
		case transport.KindGoodbye:
			s.reg.QueueLeave(e.From)
		}
		// Anything else arriving before the first round is leftover traffic;
		// round gating would discard it anyway.
	}
	return nil
}

// drainRegistrations empties whatever the server receiver already buffered,
// keeping only registration messages, then folds them in — the shutdown
// drain: a hello that reached the server before quit is reflected in the
// final status (and in the registry a save would capture) instead of being
// dropped with the receiver. Non-blocking.
func (s *Service) drainRegistrations() {
	// In tree mode the demultiplexer owns the server receiver, so inbound
	// registrations may sit either there (not yet routed) or in a leaf's
	// inbox; drain both planes.
	chans := []chan recvResult{s.srx.ch}
	if s.tree != nil {
		for _, lr := range s.tree.leafRx {
			chans = append(chans, lr.ch)
		}
	}
	for _, ch := range chans {
		s.drainRegistrationChan(ch)
	}
	s.applyFinal()
}

func (s *Service) drainRegistrationChan(ch chan recvResult) {
	for {
		select {
		case res, ok := <-ch:
			if !ok {
				return
			}
			if res.err != nil || res.e == nil {
				continue
			}
			switch res.e.Kind {
			case transport.KindHello:
				s.reg.QueueJoin(res.e.From)
			case transport.KindGoodbye:
				s.reg.QueueLeave(res.e.From)
			}
		default:
			return
		}
	}
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
	cohort := s.cohortAt(t)
	st := Status{
		Algo:       s.runner.Name(),
		Round:      t,
		Registered: s.reg.Size(),
		Online:     len(s.runner.Online(t)),
		Cohort:     len(cohort),
	}
	s.mu.Lock()
	s.status = st
	s.mu.Unlock()
}

// Registry exposes the live registry (tests and the control plane).
func (s *Service) Registry() *Registry { return s.reg }

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
		s.srx.stop()
		if s.tree != nil {
			s.tree.rootRx.stop()
		}
	})
	s.closeTransport()
}
