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
// bills), collects the shard's uploads through the demultiplexed inbox with
// the same validation ladder the flat server runs, stream-reduces them into
// an engine.Partial, digests the reduction upward, and fans the root's
// round-close back down. The leaf retains no per-client state beyond the
// partial: exact mode holds the shard's surviving uploads (O(shard)),
// compact mode a single running sum (O(1)).

// leafWorker serves rounds for one shard until its start channel closes,
// reporting one result per round on the tree's done channel — the leaf-tier
// mirror of clientPeer.work.
func (s *Service) leafWorker(shard int, start <-chan int) {
	up := s.tree.leafUp[shard]
	rx := s.tree.leafRx[shard]
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
func (s *Service) leafRound(shard, t int, up transport.Conn, rx *receiver) error {
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
			return frame{cs.Start, cs.HasGlobal, cs.StartRaw}
		}
		return frame{sa.Start, sa.HasGlobal, sa.StartRaw}
	})

	part, perr := runner.NewPartial(shard, sa.Compact)
	if perr != nil && fatal == nil {
		fatal = perr
	}

	var report *roundReport
	var roundErr error
	if fatal == nil {
		// Collect and stream-reduce into the partial (exact partials sort on
		// insert, so the digest does not depend on arrival order). On a
		// strict-mode fan failure above this is skipped — clients that never
		// saw RoundStart will not upload, and strict collection has no
		// deadline to save us.
		sink := func(u engine.Upload) error { return runner.PartialReduce(part, u) }
		rungs := s.uploadLadder(roundNoun(runner.Async() != nil), assignRef(sa), sink)
		report, roundErr, fatal = newCollector(s.clients, rx, t, cohort, rungs).collect()
	}
	if report == nil {
		report = &roundReport{missing: cohort}
	}

	digestErr := roundErr
	if fatal != nil {
		digestErr = fatal
	}
	stop := s.rec.Span(obs.PhaseLeafReduce)
	d := buildDigest(t, shard, part, report, digestErr)
	stop()
	s.sendDigest(t, shard, d)

	se, seErr := awaitShardEnd(shard, t, up)
	var end frame
	if seErr != nil {
		// The root's close never arrived (torn fabric mid-round): fan a
		// locally built error close so the shard's clients unpark.
		re := transport.RoundEnd{Round: t, Codec: uint8(runner.Codec()),
			Err: fmt.Sprintf("distrib: leaf %d lost the root: %v", shard, seErr)}
		end.bytes, _ = transport.Encode(re)
		if fatal == nil {
			fatal = seErr
		}
	} else {
		end = frame{se.End, se.HasBroadcast, se.EndRaw}
	}
	if end.bytes != nil {
		sendErr := s.fanFraming(transport.KindRoundEnd, t, cohort, func(int) frame { return end })
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
func (s *Service) leafCrashRestart(shard, t int, up transport.Conn, rx *receiver) error {
	for {
		e, err := up.Recv()
		if err != nil {
			// The fabric died mid-crash (fatal abort elsewhere tears down the
			// upper transport): surface it like any other dead-link failure.
			return fmt.Errorf("distrib: leaf %d await close: %w", shard, err)
		}
		if e.Kind == transport.KindShardEnd && e.Round == t {
			break
		}
		// The round's assignment (and any stale tier traffic) is consumed
		// without action — a crashed leaf serves nobody.
	}
	rx.drain()
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

// buildDigest renders the shard's reduction and membership report as the
// upward wire message. Digest payloads travel float64raw (lossless), so the
// root reconstructs bit-identical engine payloads regardless of the
// client-plane codec.
func buildDigest(t, shard int, part *engine.Partial, report *roundReport, digestErr error) *transport.ShardDigest {
	d := &transport.ShardDigest{Round: t, Shard: shard, Heard: report.cohort, Missing: report.missing}
	if digestErr != nil {
		d.Err = digestErr.Error()
		return d
	}
	if part == nil {
		return d
	}
	if part.Compact {
		if part.Sum != nil {
			d.HasSum = true
			d.Sum = transport.PayloadToWire(part.Sum)
		}
		d.Weight = part.Weight
		d.Count = part.Count
		return d
	}
	d.Uploads = make([]transport.ShardUpload, len(part.Uploads))
	for i, u := range part.Uploads {
		d.Uploads[i] = transport.ShardUpload{Client: u.Client, Payload: transport.PayloadToWire(u.Payload)}
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
	payload, err := transport.Encode(d)
	if err != nil {
		payload = nil
	}
	env := &transport.Envelope{Kind: transport.KindShardDigest, From: shard, To: -1, Round: t, Payload: payload}
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
		return sa, fmt.Errorf("distrib: leaf %d got kind %v round %d awaiting round %d's assignment", shard, e.Kind, e.Round, t)
	}
	if derr := transport.Decode(e.Payload, sa); derr != nil {
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
		return nil, fmt.Errorf("distrib: leaf %d got kind %v round %d awaiting round %d's close", shard, e.Kind, e.Round, t)
	}
	var se transport.ShardEnd
	if derr := transport.Decode(e.Payload, &se); derr != nil {
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
