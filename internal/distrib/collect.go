package distrib

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fedpkd/internal/comm"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/transport"
)

// collector gathers one round's uploads from one inbox: the flat server's
// for the whole cohort, a leaf's for its shard. It is the only place upload
// envelopes are validated — every rung of the ladder is written once, and
// reject decides what a failed rung means.
type collector struct {
	// t is the round (or flush) index; noun names it in error text.
	t    int
	noun string
	// n is the universe size; cohort the clients this inbox awaits, ascending.
	n      int
	cohort []int
	// ref returns the delta reference a client's upload decodes against: the
	// round's shared global, or the client's own retained one in a flush.
	ref    func(client int) []float64
	codec  comm.Codec
	ledger *comm.Ledger
	reg    *Registry
	// faults is the shared fault schedule. Clients it crashes this round are
	// not awaited at all — the deterministic equivalent of a failure detector,
	// so a crash-heavy round does not burn the whole deadline.
	faults *faults.Plan
	// timeout bounds the whole collect; zero waits for every awaited client.
	timeout time.Duration
	rs      *roundStats
	// sink receives each surviving upload, in arrival order. A sink failure is
	// an algorithm-level error and aborts the round like a client-reported
	// hook failure.
	sink func(engine.Upload) error

	roundErr error
}

// reject applies the failure model to one bad envelope: strict mode makes err
// the round error, which ends the collect; tolerant mode counts the envelope
// in class and drops it.
func (c *collector) reject(class *atomic.Int64, err error) {
	c.roundErr = c.rs.reject(class, err)
}

// collect drains rx until every awaited cohort member has contributed, the
// deadline passes, or a rung of the ladder fails in strict mode. roundErr is
// a protocol-level failure that still gets a RoundEnd; err is a
// transport-level failure that aborts the run.
//
// Registration traffic flows through here too: hello/goodbye envelopes
// arriving mid-round are queued into the registry (applied at the next
// barrier) and billed as control bytes.
func (c *collector) collect(rx *receiver) (report *roundReport, roundErr, err error) {
	rs := c.rs
	seen := make(map[int]bool, len(c.cohort))
	inCohort := make(map[int]bool, len(c.cohort))
	await := 0
	for _, id := range c.cohort {
		inCohort[id] = true
		if !c.faults.CrashesAt(id, c.t) {
			await++
		}
	}
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	for await > 0 && c.roundErr == nil {
		wait := time.Duration(0)
		if !deadline.IsZero() {
			wait = time.Until(deadline)
			if wait <= 0 {
				break
			}
		}
		e, rerr := rx.recv(wait)
		if errors.Is(rerr, errRecvTimeout) {
			break
		}
		var gone *peerGoneError
		if errors.As(rerr, &gone) && !rs.strict {
			// A dead connection is not a dead client: a crash-restarting
			// peer redials and its upload (if any) arrives on the new conn.
			continue
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("server recv: %w", rerr)
		}
		if e.Kind == transport.KindHello || e.Kind == transport.KindGoodbye {
			if e.Kind == transport.KindHello {
				c.reg.QueueJoin(e.From)
			} else {
				c.reg.QueueLeave(e.From)
			}
			c.ledger.AddControl(e.WireSize())
			continue
		}
		if e.Kind != transport.KindUpload {
			c.reject(&rs.stale, fmt.Errorf("distrib: unexpected message kind %v", e.Kind))
			continue
		}
		if e.Round != c.t {
			c.reject(&rs.stale, fmt.Errorf("%w: upload for round %d during %s %d", ErrStaleEnvelope, e.Round, c.noun, c.t))
			continue
		}
		if e.From < 0 || e.From >= c.n {
			c.reject(&rs.stale, fmt.Errorf("%w: upload from unknown peer %d", ErrPeerMismatch, e.From))
			continue
		}
		if !c.reg.Has(e.From) {
			c.reject(&rs.unknown, fmt.Errorf("%w: upload from unregistered peer %d in %s %d", ErrUnknownClient, e.From, c.noun, c.t))
			continue
		}
		var ru transport.RoundUpload
		if derr := transport.Decode(e.Payload, &ru); derr != nil {
			c.reject(&rs.corrupt, derr)
			continue
		}
		if verr := ru.Validate(); verr != nil {
			c.reject(&rs.corrupt, verr)
			continue
		}
		if ru.HasPayload && ru.Payload.Codec != uint8(c.codec) {
			c.reject(&rs.corrupt, fmt.Errorf("%w: upload from peer %d coded %d, %s %d negotiated %d",
				ErrCodecMismatch, e.From, ru.Payload.Codec, c.noun, c.t, uint8(c.codec)))
			continue
		}
		if ru.Client < 0 || ru.Client >= c.n {
			c.reject(&rs.corrupt, fmt.Errorf("distrib: client id %d out of range (%d clients)", ru.Client, c.n))
			continue
		}
		if ru.Client != e.From {
			c.reject(&rs.corrupt, fmt.Errorf("%w: upload labeled client %d arrived from peer %d", ErrPeerMismatch, ru.Client, e.From))
			continue
		}
		if !inCohort[ru.Client] {
			// Registered but not scheduled (offline per the availability trace,
			// joined after the barrier, or outside the flush's buffer): the
			// upload is out-of-round traffic.
			c.reject(&rs.stale, fmt.Errorf("%w: upload from client %d outside %s %d's cohort", ErrStaleEnvelope, ru.Client, c.noun, c.t))
			continue
		}
		if ru.Round != c.t {
			c.reject(&rs.stale, fmt.Errorf("%w: upload payload stamped round %d during %s %d", ErrStaleEnvelope, ru.Round, c.noun, c.t))
			continue
		}
		if seen[ru.Client] {
			c.reject(&rs.dup, fmt.Errorf("%w: client %d", ErrDuplicateUpload, ru.Client))
			continue
		}
		seen[ru.Client] = true
		await--
		if ru.Err != "" {
			// A client-side hook failure aborts the round in both modes: the
			// failure model covers the infrastructure, not the algorithm.
			c.roundErr = fmt.Errorf("distrib: client %d: %s", ru.Client, ru.Err)
			continue
		}
		if !ru.HasPayload {
			continue
		}
		p, perr := ru.Payload.ToPayloadRef(c.ref(ru.Client))
		if perr != nil {
			c.reject(&rs.corrupt, perr)
			continue
		}
		if c.codec == comm.CodecFloat64 {
			c.ledger.AddUpload(e.WireSize())
		} else {
			raw := rawWireSize(
				transport.RoundUpload{Round: ru.Round, Client: ru.Client, HasPayload: true, Payload: transport.PayloadToWire(p)},
				e.WireSize())
			c.ledger.AddUploadRaw(e.WireSize(), raw)
		}
		if serr := c.sink(engine.Upload{Client: ru.Client, Payload: p}); serr != nil {
			c.roundErr = serr
		}
	}
	missing := make([]int, 0)
	for _, id := range c.cohort {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	return &roundReport{cohort: len(c.cohort) - len(missing), missing: missing}, c.roundErr, nil
}
