package distrib

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/stats"
	"fedpkd/internal/transport"
)

// plane is one aggregator tier as a value: the failure model an aggregator
// applies to its children's traffic, and the round's protocol-hygiene
// counters under it. The service has two — the client plane (the flat server
// or a leaf over its clients) and the tier (the root over its leaves) — and
// everything that differs between them is a field here; the collect loop, the
// reject decision and the retry loop below are written once.
type plane struct {
	// name labels the plane in transport-error text.
	name string
	// strict makes every protocol violation an error. It is false when the
	// plane's timeout or a fault plan for it is set: violations are then
	// counted below and the offending envelope dropped. The two planes are
	// independent — a run can tolerate leaf loss while staying strict about
	// client traffic, and vice versa.
	strict bool
	// timeout bounds one collect; zero waits for every awaited child.
	timeout time.Duration
	// clock times the plane's deadlines and backoffs.
	clock faults.Clock
	// crashes is the fault plan's schedule for this plane's children. Children
	// it crashes this round are not awaited at all — the deterministic
	// equivalent of a failure detector, so a crash-heavy round does not burn
	// the whole deadline.
	crashes func(child, round int) bool
	// writeOff makes a tolerant collect give up on a child whose link died or
	// whose envelope arrived attributably bad (the tier: the shard is lost to
	// its own fault, not to the deadline). The client plane only drops the
	// envelope: a dead connection is not a dead client — a crash-restarting
	// peer redials and its upload, if any, arrives on the new conn.
	writeOff bool
	// fatal makes a strict violation abort the run with no round close (the
	// tier: its links are infrastructure) instead of ending the round with an
	// error the round close still carries to every peer (the client plane).
	fatal bool
	// seed keys send's backoff jitter.
	seed uint64

	// retries counts send's; timeouts the children a collect awaited until its
	// deadline (the trace also lists the client plane's by id).
	stale, dup, corrupt, unknown, retries, timeouts atomic.Int64
}

// newPlanes derives both planes from the run's options, timed on clk.
func newPlanes(o *Options, clk faults.Clock) (clients, tier *plane) {
	clients = &plane{name: "client", timeout: o.ClientTimeout, clock: clk,
		strict:  o.ClientTimeout <= 0 && !o.Faults.Enabled(),
		crashes: o.Faults.CrashesAt}
	tier = &plane{name: "tier", timeout: o.LeafTimeout, clock: clk,
		strict:  o.LeafTimeout <= 0 && !o.Faults.TierEnabled(),
		crashes: o.Faults.LeafCrashesAt, writeOff: true, fatal: true}
	if o.Faults != nil {
		clients.seed, tier.seed = o.Faults.Seed, o.Faults.Seed
	}
	return clients, tier
}

// timer arms the plane's clock for d, or returns a nil channel, which never
// fires, when the plane has no deadline.
func (pl *plane) timer(d time.Duration) (expired <-chan time.Time, stop func()) {
	if pl.timeout <= 0 {
		return nil, func() {}
	}
	return pl.clock(d)
}

func (pl *plane) reset() {
	for _, c := range []*atomic.Int64{&pl.stale, &pl.dup, &pl.corrupt, &pl.unknown, &pl.retries, &pl.timeouts} {
		c.Store(0)
	}
}

// reject applies the failure model to one protocol violation: strict mode
// returns err for the caller to abort with, tolerant mode counts the
// violation in class and returns nil.
func (pl *plane) reject(class *atomic.Int64, err error) error {
	if pl.strict {
		return err
	}
	class.Add(1)
	return nil
}

// send runs try(1), try(2), … until one succeeds, retrying injected
// transient failures with deterministic exponential backoff on the
// faults.Backoff defaults (never in strict mode, and at most its attempts).
// The jitter stream is keyed by (seed, label); callers pass a label from a
// band disjoint from every other RNG consumer, so retry schedules never
// perturb training draws.
func (pl *plane) send(label uint64, try func(attempt int) error) error {
	b := faults.Backoff{}.WithDefaults()
	var rng *stats.RNG
	for attempt := 1; ; attempt++ {
		err := try(attempt)
		if err == nil || pl.strict || !errors.Is(err, faults.ErrTransient) || attempt >= b.Attempts {
			return err
		}
		if rng == nil {
			rng = stats.Split(pl.seed, label)
		}
		pl.retries.Add(1)
		pl.clock.Sleep(b.Delay(attempt, rng))
	}
}

// childState is what a collect knows of one id; the zero value is an id it
// does not await at all.
type childState uint8

const (
	absent  childState = iota
	pending            // nothing accepted from the child yet
	heard              // its contribution was accepted
	lost               // crashed by the plan, or written off
)

// ladder adjudicates one inbound envelope, rung by rung: it consumes control
// traffic, calls reject or rejectFrom at the rung that fails, or calls accept
// for the child the envelope settles. A ladder releases the envelope's buffer
// as soon as it has decoded the payload; collect releases whatever a ladder
// returns without getting that far.
type ladder func(c *collector, e *transport.Envelope)

// collector gathers one round's contributions from one inbox under one
// plane: the flat server's or a leaf's uploads from its cohort, the root's
// digests from its shards. The loop, the deadline, the dedupe state and the
// one reject are here; what a valid envelope looks like is the ladder's.
type collector struct {
	pl *plane
	rx inbox
	// t is the round (or flush) index; children the ids this inbox awaits,
	// ascending.
	t        int
	children []int
	ladder   ladder

	state map[int]childState
	await int
	// roundErr is a protocol-level failure that still gets a round close;
	// fatal aborts the run.
	roundErr, fatal error
}

func newCollector(pl *plane, rx inbox, t int, children []int, l ladder) *collector {
	c := &collector{pl: pl, rx: rx, t: t, children: children, ladder: l, state: make(map[int]childState, len(children))}
	for _, id := range children {
		if pl.crashes(id, t) {
			c.state[id] = lost
		} else {
			c.state[id] = pending
			c.await++
		}
	}
	return c
}

// reject applies the plane's failure model to one bad envelope that cannot be
// pinned on a child: strict mode makes err the round error (or, on a fatal
// plane, the run's), which ends the collect; tolerant mode counts the
// envelope in class and drops it.
func (c *collector) reject(class *atomic.Int64, err error) {
	if err = c.pl.reject(class, err); c.pl.fatal {
		c.fatal = err
	} else {
		c.roundErr = err
	}
}

// rejectFrom is reject for an envelope attributable to child (the chaos layer
// leaves headers intact), which the plane may write off.
func (c *collector) rejectFrom(child int, class *atomic.Int64, err error) {
	c.reject(class, err)
	c.writeOff(child)
}

// writeOff gives up on a pending child where the plane says so.
func (c *collector) writeOff(child int) {
	if c.pl.writeOff && c.state[child] == pending {
		c.state[child] = lost
		c.await--
	}
}

func (c *collector) accept(child int) {
	c.state[child] = heard
	c.await--
}

// collect drains the inbox until every awaited child has contributed or been
// written off, the plane's deadline expires, or a rung of the ladder fails in
// strict mode. roundErr is a protocol-level failure that still gets a round
// close; err is a failure that aborts the run.
func (c *collector) collect() (report *roundReport, roundErr, err error) {
	pl := c.pl
	expired, stop := pl.timer(pl.timeout)
	defer stop()
	for c.await > 0 && c.roundErr == nil && c.fatal == nil {
		e, rerr := c.rx.recv(expired)
		if errors.Is(rerr, errRecvTimeout) {
			break
		}
		var gone *peerGoneError
		if errors.As(rerr, &gone) && !pl.strict {
			c.writeOff(gone.id)
			continue
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("distrib: %s plane recv: %w", pl.name, rerr)
		}
		c.ladder(c, e)
		e.Release()
	}
	if c.fatal != nil {
		return nil, nil, c.fatal
	}
	missing := make([]int, 0)
	for _, id := range c.children {
		if c.state[id] == heard {
			continue
		}
		missing = append(missing, id)
		// Still pending with no round error to end the collect early: the child
		// was awaited until the deadline.
		if c.state[id] == pending && c.roundErr == nil {
			pl.timeouts.Add(1)
		}
	}
	return &roundReport{cohort: len(c.children) - len(missing), missing: missing}, c.roundErr, nil
}

// uploadLadder is the client plane's ladder — the only place upload envelopes
// are validated — for one round (or flush, per noun) of the service. ref
// returns the delta reference a client's upload decodes against: the round's
// shared global, or the client's own retained one in a flush. sink receives
// each surviving upload, in arrival order, and with it the upload's params
// vector, which the sink's holder returns (releaseParams); every rung that
// drops a decoded upload returns its vector itself. sink also receives the
// wire form the upload decoded from, as the client sent it — a leaf forwards
// it in its digest. Under float64raw that form shares the decoded upload's
// slices, its Params vector included; under a compressing codec it holds the
// packed sections, which the decoded upload does not share. A sink failure is an
// algorithm-level error and aborts the round like a client-reported hook
// failure. Registration traffic flows through the ladder too: hello/goodbye
// envelopes arriving mid-round are queued into the registry (applied at the
// next barrier) and billed as control bytes.
func (s *Service) uploadLadder(noun string, ref func(client int) []float64, sink func(engine.Upload, transport.WirePayload) error) ladder {
	n, reg, codec, ledger := s.n, s.reg, s.runner.Codec(), s.runner.Ledger()
	return func(c *collector, e *transport.Envelope) {
		pl := c.pl
		if s.register(e) {
			ledger.AddControl(e.WireSize())
			return
		}
		if e.Kind != transport.KindUpload {
			c.reject(&pl.stale, fmt.Errorf("distrib: unexpected message kind %v", e.Kind))
			return
		}
		if e.Round != c.t {
			c.reject(&pl.stale, fmt.Errorf("%w: upload for round %d during %s %d", ErrStaleEnvelope, e.Round, noun, c.t))
			return
		}
		if e.From < 0 || e.From >= n {
			c.reject(&pl.stale, fmt.Errorf("%w: upload from unknown peer %d", ErrPeerMismatch, e.From))
			return
		}
		if !reg.Has(e.From) {
			c.reject(&pl.unknown, fmt.Errorf("%w: upload from unregistered peer %d in %s %d", ErrUnknownClient, e.From, noun, c.t))
			return
		}
		var ru transport.RoundUpload
		derr := transport.Decode(e.Payload, &ru)
		wire := e.WireSize()
		e.Release() // Decode copied everything it keeps
		// A rung that drops the upload returns its params vector with it.
		defer func() { transport.ReleaseVector(ru.Payload.Params) }()
		if derr != nil {
			c.reject(&pl.corrupt, derr)
			return
		}
		if verr := ru.Validate(); verr != nil {
			c.reject(&pl.corrupt, verr)
			return
		}
		if ru.HasPayload && ru.Payload.Codec != uint8(codec) {
			c.reject(&pl.corrupt, fmt.Errorf("%w: upload from peer %d coded %d, %s %d negotiated %d",
				ErrCodecMismatch, e.From, ru.Payload.Codec, noun, c.t, uint8(codec)))
			return
		}
		if ru.Client < 0 || ru.Client >= n {
			c.reject(&pl.corrupt, fmt.Errorf("distrib: client id %d out of range (%d clients)", ru.Client, n))
			return
		}
		if ru.Client != e.From {
			c.reject(&pl.corrupt, fmt.Errorf("%w: upload labeled client %d arrived from peer %d", ErrPeerMismatch, ru.Client, e.From))
			return
		}
		if c.state[ru.Client] == absent {
			// Registered but not scheduled (offline per the availability trace,
			// joined after the barrier, or outside the flush's buffer): the
			// upload is out-of-round traffic.
			c.reject(&pl.stale, fmt.Errorf("%w: upload from client %d outside %s %d's cohort", ErrStaleEnvelope, ru.Client, noun, c.t))
			return
		}
		if ru.Round != c.t {
			c.reject(&pl.stale, fmt.Errorf("%w: upload payload stamped round %d during %s %d", ErrStaleEnvelope, ru.Round, noun, c.t))
			return
		}
		if c.state[ru.Client] != pending {
			c.reject(&pl.dup, fmt.Errorf("%w: client %d", ErrDuplicateUpload, ru.Client))
			return
		}
		c.accept(ru.Client)
		if ru.Err != "" {
			// A client-side hook failure aborts the round in both modes: the
			// failure model covers the infrastructure, not the algorithm.
			c.roundErr = fmt.Errorf("distrib: client %d: %s", ru.Client, ru.Err)
			return
		}
		if !ru.HasPayload {
			return
		}
		received := ru.Payload
		p, perr := received.ToPayloadRef(ref(ru.Client))
		if perr != nil {
			c.reject(&pl.corrupt, perr)
			return
		}
		// p holds the raw vector, or the one a packed section unpacked into:
		// the deferred release follows it from here.
		ru.Payload.Params = p.Params
		if codec == comm.CodecFloat64 {
			ledger.AddUpload(wire)
		} else {
			raw := rawWireSize(&transport.RoundUpload{Round: ru.Round, Client: ru.Client, HasPayload: true}, p, wire)
			ledger.AddUploadRaw(wire, raw)
		}
		if serr := sink(engine.Upload{Client: ru.Client, Payload: p}, received); serr != nil {
			c.roundErr = serr
			return
		}
		ru.Payload.Params = nil // the sink's holder returns it (releaseParams)
	}
}

// releaseParams returns the params vectors uploads were decoded into to the
// transport's list, once nothing reads them: the flat server's and the root's
// after the round's Aggregate and close, a leaf's after its digest is encoded.
func releaseParams(uploads []engine.Upload) {
	for _, u := range uploads {
		if u.Payload != nil {
			transport.ReleaseVector(u.Payload.Params)
		}
	}
}
