package distrib

import (
	"fmt"

	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Leaf aggregator: one shard's server. Each round the leaf receives a shard
// assignment from the root, fans the round-opening envelopes to its cohort
// slice (the exact bytes the root encoded, billed exactly as the flat server
// bills), collects the shard's uploads from its own inbox — which the client
// fabric's pumps feed directly — with the same validation ladder the flat
// server runs, inserts them into an engine.Partial, forwards the surviving
// uploads upward in a digest exactly as their clients sent them, and fans the
// root's round-close back down. The leaf retains no per-client state beyond
// the round's partial and the received wire forms beside it.

// leafWorker serves rounds for one shard until its start channel closes,
// reporting one result per round on the tree's done channel — the leaf-tier
// mirror of clientPeer.work.
func (s *Service) leafWorker(shard int, start <-chan int) {
	up := s.tree.leafUp[shard]
	rx := s.inboxes[shard]
	for t := range start {
		s.tree.leafDone <- s.leafRound(shard, t, up, rx)
	}
}

// leafRound serves one round (or async flush) of the leaf's shard.
//
// Two invariants keep every failure path deadlock-free: once the round's
// assignment has arrived the leaf ALWAYS sends a digest (an Err digest when
// the shard failed), so the root's untimed digest collect terminates; and it
// ALWAYS fans a round-close to its cohort (a locally built error close when
// the root's never arrived), so no client parks forever. Failures before the
// assignment arrives mean the upper fabric is dead, in which case the root's
// collect fails too and the service tears the transports down.
func (s *Service) leafRound(shard, t int, up transport.Conn, rx inbox) error {
	if s.tier.crashes(shard, t) {
		s.fstats.CountLeafCrash()
		return s.leafCrashRestart(shard, t, up, rx)
	}
	runner := s.runner

	sa, assignErr := awaitAssign(shard, t, up)
	if sa == nil {
		// Not even an envelope: the fabric is gone and the root knows.
		return assignErr
	}
	if assignErr != nil {
		// The envelope arrived but was unusable; without a cohort the leaf can
		// only digest the failure so the root aborts the round, then consume
		// the close the root still fans.
		releaseRefs(sa)
		s.sendDigest(t, shard, &transport.ShardDigest{Round: t, Shard: shard, Err: assignErr.Error()})
		_, _ = awaitShardEnd(shard, t, up)
		return assignErr
	}

	cohort := make([]int, len(sa.Clients))
	for i, cs := range sa.Clients {
		cohort[i] = cs.Client
	}

	// Fan the round opening: shared payload for a synchronous round,
	// per-client retained globals for an async flush.
	fatal := s.fanFraming(transport.KindRoundStart, t, cohort, func(i int) frame {
		if cs := sa.Clients[i]; cs.Start != nil {
			return frame{bytes: cs.Start, knowledge: cs.HasGlobal, raw: cs.StartRaw}
		}
		return frame{bytes: sa.Start, knowledge: sa.HasGlobal, raw: sa.StartRaw}
	})

	part := engine.NewExactPartial(shard)
	// The wire form each surviving upload arrived in, which the digest
	// forwards: the leaf decodes every upload to validate it, and sends on
	// what the client sent.
	received := make(map[int]transport.WirePayload, len(cohort))
	var report *roundReport
	var roundErr error
	if fatal == nil {
		// Collect into the partial (it sorts on insert, so the digest does
		// not depend on arrival order). On a strict-mode fan failure above
		// this is skipped — clients that never saw RoundStart will not
		// upload, and strict collection has no deadline to save us.
		rungs := s.uploadLadder(roundNoun(runner.Async() != nil), assignRef(sa), func(u engine.Upload, w transport.WirePayload) error {
			if err := part.Insert(u); err != nil {
				return err
			}
			received[u.Client] = w
			return nil
		})
		report, roundErr, fatal = newCollector(s.clients, rx, t, cohort, rungs).collect()
	}
	releaseRefs(sa) // every upload is decoded
	if report == nil {
		report = &roundReport{missing: cohort}
	}

	digestErr := roundErr
	if fatal != nil {
		digestErr = fatal
	}
	stop := s.rec.Span(obs.PhaseLeafReduce)
	d := buildDigest(t, shard, part, received, report, digestErr)
	stop()
	s.sendDigest(t, shard, d)
	// The digest is encoded: a float64raw form's Params is its upload's
	// vector, which goes back here with the rest.
	releaseParams(part.Uploads)

	se, seErr := awaitShardEnd(shard, t, up)
	var end frame
	if seErr != nil {
		// The root's close never arrived (torn fabric mid-round): fan a
		// locally built error close so the shard's clients unpark.
		re := transport.RoundEnd{Round: t, Codec: uint8(runner.Codec()),
			Err: fmt.Sprintf("distrib: leaf %d lost the root: %v", shard, seErr)}
		end, _ = encodeFrame(re)
		if fatal == nil {
			fatal = seErr
		}
	} else {
		end = frame{bytes: se.End, knowledge: se.HasBroadcast, raw: se.EndRaw}
	}
	if end.bytes != nil {
		sendErr := s.fanFraming(transport.KindRoundEnd, t, cohort, func(int) frame { return end })
		end.release()
		if fatal == nil && roundErr == nil {
			fatal = sendErr
		}
	}
	if fatal != nil {
		return fatal
	}
	return roundErr
}

// leafCrashRestart executes one injected leaf crash: the leaf serves nothing
// this round — it fans no round opening, collects no uploads, and sends no
// digest (the root's deterministic failure detector already wrote the shard
// off). It still consumes its round framing from the root (assignment, then
// the close the root fans to lost shards too) so the tier link carries no
// stale traffic into the next round, then drops whatever its client-plane
// inbox buffered — the restarted-process semantics clientPeer.restart gives
// the bus — and rejoins at the next round, where the collector re-collects
// the shard's uploads through the usual validation ladder.
func (s *Service) leafCrashRestart(shard, t int, up transport.Conn, rx inbox) error {
	for {
		e, err := up.Recv()
		if err != nil {
			// The fabric died mid-crash (fatal abort elsewhere tears down the
			// upper transport): surface it like any other dead-link failure.
			return fmt.Errorf("distrib: leaf %d await close: %w", shard, err)
		}
		e.Release()
		if e.Kind == transport.KindShardEnd && e.Round == t {
			break
		}
		// The round's assignment (and any stale tier traffic) is consumed
		// without action — a crashed leaf serves nobody.
	}
	rx.drain(nil)
	return nil
}

// assignRef returns the delta-reference lookup an assignment describes: a
// client's own override when it has one (a flush's retained global), the
// shared round reference otherwise.
func assignRef(sa *transport.ShardAssign) func(client int) []float64 {
	own := make(map[int][]float64)
	for _, cs := range sa.Clients {
		if cs.Ref != nil {
			own[cs.Client] = cs.Ref
		}
	}
	return func(client int) []float64 {
		if ref, ok := own[client]; ok {
			return ref
		}
		return sa.Ref
	}
}

// releaseRefs returns the delta references sa decoded into, once the shard's
// uploads no longer decode against them.
func releaseRefs(sa *transport.ShardAssign) {
	transport.ReleaseVector(sa.Ref)
	for _, cs := range sa.Clients {
		transport.ReleaseVector(cs.Ref)
	}
}

// buildDigest renders the shard's reduction and membership report as the
// upward wire message: each surviving upload's received wire form, in the
// partial's client order. Forwarded payloads keep their clients' codec —
// packed sections and delta coding included — and the root decodes each
// against the reference its client trained from, so it reconstructs exactly
// the engine payloads the leaf decoded.
func buildDigest(t, shard int, part *engine.Partial, received map[int]transport.WirePayload, report *roundReport, digestErr error) *transport.ShardDigest {
	d := &transport.ShardDigest{Round: t, Shard: shard, Heard: report.cohort, Missing: report.missing}
	if digestErr != nil {
		d.Err = digestErr.Error()
		return d
	}
	d.Uploads = make([]transport.ShardUpload, len(part.Uploads))
	for i, u := range part.Uploads {
		d.Uploads[i] = transport.ShardUpload{Client: u.Client, Payload: received[u.Client]}
	}
	return d
}

// sendDigest ships one digest upward and bills the tier backhaul. An encode
// failure degrades to an empty payload — the root's decode then fails the
// round, which still unblocks its collect; silence would burn the whole
// LeafTimeout. Injected transient send failures are retried on the tier
// plane's backoff schedule; each attempt is billed (attempt counts are a pure
// function of the plan, so billing stays replay-stable). Real send failures
// only happen when the fabric is tearing down, and then the root's collect
// errors on its own.
func (s *Service) sendDigest(t, shard int, d *transport.ShardDigest) {
	env := &transport.Envelope{Kind: transport.KindShardDigest, From: shard, To: -1, Round: t}
	_ = env.Encode(d) // on failure the payload stays empty
	defer env.Release()
	_ = s.tier.send(uint64(t)*1000+800+uint64(shard), func(attempt int) error {
		if attempt > 1 {
			s.root.note(shard, func(h *ShardHealth) { h.Retries++ })
		}
		err := s.tree.leafUp[shard].Send(env)
		s.runner.Ledger().AddTierUp(env.WireSize())
		return err
	})
}

// awaitAssign receives round t's shard assignment. A nil assignment means no
// envelope arrived at all (dead fabric); a non-nil assignment with an error
// means the envelope was unusable but the tier link still works.
func awaitAssign(shard, t int, up transport.Conn) (*transport.ShardAssign, error) {
	e, err := up.Recv()
	if err != nil {
		return nil, fmt.Errorf("distrib: leaf %d await assignment: %w", shard, err)
	}
	sa := &transport.ShardAssign{}
	if e.Kind != transport.KindShardAssign || e.Round != t {
		e.Release()
		return sa, fmt.Errorf("distrib: leaf %d got kind %v round %d awaiting round %d's assignment", shard, e.Kind, e.Round, t)
	}
	derr := transport.Decode(e.Payload, sa)
	e.Release()
	if derr != nil {
		return sa, derr
	}
	if verr := sa.Validate(); verr != nil {
		return sa, verr
	}
	if sa.Shard != shard {
		return sa, fmt.Errorf("distrib: leaf %d got shard %d's assignment", shard, sa.Shard)
	}
	return sa, nil
}

// awaitShardEnd receives round t's close from the root. Tier links are
// infrastructure: any violation is an error, never tolerated chaos.
func awaitShardEnd(shard, t int, up transport.Conn) (*transport.ShardEnd, error) {
	e, err := up.Recv()
	if err != nil {
		return nil, fmt.Errorf("distrib: leaf %d await close: %w", shard, err)
	}
	if e.Kind != transport.KindShardEnd || e.Round != t {
		e.Release()
		return nil, fmt.Errorf("distrib: leaf %d got kind %v round %d awaiting round %d's close", shard, e.Kind, e.Round, t)
	}
	var se transport.ShardEnd
	derr := transport.Decode(e.Payload, &se)
	e.Release()
	if derr != nil {
		return nil, derr
	}
	if verr := se.Validate(); verr != nil {
		return nil, verr
	}
	if se.Shard != shard {
		return nil, fmt.Errorf("distrib: leaf %d got shard %d's close", shard, se.Shard)
	}
	return &se, nil
}
