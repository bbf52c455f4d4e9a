package distrib

import (
	"errors"
	"fmt"
	"time"

	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// Root aggregator: the top of the two-tier tree. The root never touches
// per-client connections or uploads — it partitions the round's cohort into
// contiguous shard slices (index ranges over the cohort, no copies), encodes
// the round framing ONCE, hands each leaf its assignment, collects exactly
// one digest per shard, merges the per-shard partials, and runs the
// algorithm's Aggregate over the merged result. Every structure the root
// allocates is sized by the shard count, never the population — the
// structural gate in scripts/check.sh holds this file to that invariant.
//
// Because shards are contiguous id ranges, concatenating the per-shard
// sorted uploads in shard order reproduces the globally client-sorted slice,
// so the root's Aggregate call is bit-identical to the flat server's — the
// equivalence the tree goldens pin.

// rootRound runs the root's side of one round plan, returning the merged
// membership report and the round error exactly as serverRound does for the
// flat path. The plan's shared start rides every assignment; a client's
// override (a flush's retained global and delta reference) rides its own
// ClientStart. A flush's staleness weighting runs here, over the merged
// uploads — the computation the flat server performs.
func (s *Service) rootRound(plan *roundPlan) (*roundReport, error) {
	t, runner := plan.t, s.runner
	codec := runner.Codec()
	topo := s.tree.topo

	shared := plan.shared
	cohorts := shardCohorts(plan.cohort, s.n, topo.Shards)
	for i, members := range cohorts {
		sa := transport.ShardAssign{
			Round: t, Shard: i, Flush: plan.flush != nil, Compact: topo.Compact,
			Start: shared.payload, HasGlobal: shared.hasGlobal, StartRaw: shared.raw, Ref: shared.ref,
			Clients: make([]transport.ClientStart, len(members)),
		}
		for j, c := range members {
			cs := transport.ClientStart{Client: c}
			if o, ok := plan.override[c]; ok {
				cs.Start, cs.HasGlobal, cs.StartRaw, cs.Ref = o.payload, o.hasGlobal, o.raw, o.ref
			}
			sa.Clients[j] = cs
		}
		if err := s.sendAssign(&sa); err != nil {
			return nil, err
		}
	}

	digests, lostShards, err := s.collectDigests(t)
	if err != nil {
		return nil, err
	}
	report, parts, count, roundErr := s.mergeDigests(digests, cohorts, lostShards)

	if roundErr == nil && s.opts.ShardQuorum > 0 && topo.Shards-len(lostShards) < s.opts.ShardQuorum {
		roundErr = fmt.Errorf("%w: %s %d merged %d of %d shard digests, quorum %d",
			ErrShardQuorumNotMet, plan.noun(), t, topo.Shards-len(lostShards), topo.Shards, s.opts.ShardQuorum)
	}
	if roundErr == nil && s.opts.MinQuorum > 0 && count < s.opts.MinQuorum {
		roundErr = fmt.Errorf("%w: %s %d aggregated %d of %d required uploads", ErrQuorumNotMet, plan.noun(), t, count, s.opts.MinQuorum)
	}
	var bcast *engine.Payload
	if roundErr == nil && count > 0 {
		if topo.Compact {
			bcast, roundErr = runner.MergeCompact(runner.Context(t), parts)
		} else if uploads, merr := runner.MergePartials(parts); merr != nil {
			roundErr = merr
		} else {
			bcast, roundErr = s.aggregate(plan, uploads, report)
		}
	}
	payload, hasBroadcast, endRaw, roundErr, fatal := buildRoundEnd(t, codec, bcast, roundErr)
	if fatal != nil {
		return report, fatal
	}
	if err := s.sendShardEnds(t, payload, hasBroadcast, endRaw); err != nil {
		return report, err
	}
	return report, roundErr
}

// sendAssign ships one shard assignment down and bills the tier backhaul.
func (s *Service) sendAssign(sa *transport.ShardAssign) error {
	payload, err := transport.Encode(sa)
	if err != nil {
		return err
	}
	env := &transport.Envelope{Kind: transport.KindShardAssign, From: -1, To: sa.Shard, Round: sa.Round, Payload: payload}
	if err := s.tree.upper.server.Send(env); err != nil {
		return fmt.Errorf("distrib: root assign shard %d: %w", sa.Shard, err)
	}
	s.runner.Ledger().AddTierDown(env.WireSize())
	return nil
}

// sendShardEnds fans the encoded round close to every leaf with its billing
// facts, so each leaf can close its shard exactly as the flat server would
// have.
func (s *Service) sendShardEnds(t int, end []byte, hasBroadcast bool, endRaw int) error {
	for i := 0; i < s.tree.topo.Shards; i++ {
		se := transport.ShardEnd{Round: t, Shard: i, End: end, HasBroadcast: hasBroadcast, EndRaw: endRaw}
		payload, err := transport.Encode(se)
		if err != nil {
			return err
		}
		env := &transport.Envelope{Kind: transport.KindShardEnd, From: -1, To: i, Round: t, Payload: payload}
		if err := s.tree.upper.server.Send(env); err != nil {
			return fmt.Errorf("distrib: root close shard %d: %w", i, err)
		}
		s.runner.Ledger().AddTierDown(env.WireSize())
	}
	return nil
}

// rootWaitSlice bounds any single wait of the root's digest collect. Strict
// tree mode still waits for every digest indefinitely — but in slices, so no
// receive in this file ever blocks without a deadline (the structural gate in
// scripts/check.sh holds the root to that shape).
const rootWaitSlice = time.Second

// collectDigests awaits up to one digest per shard and returns the digests
// alongside the sorted list of lost shards. Strict tree mode (no LeafTimeout,
// no tier fault plan) keeps the old contract: every leaf digests every round
// and any tier-link protocol violation is an error. Tolerant tree mode makes
// leaves chaos subjects — shards the fault schedule crashes are never awaited
// (the deterministic failure detector, so a crash-heavy round does not burn
// the deadline), a corrupt or misrouted digest loses its shard, a duplicate
// digest is rejected, and whatever has not arrived when LeafTimeout expires
// is lost to a leaf timeout.
func (s *Service) collectDigests(t int) ([]*transport.ShardDigest, []int, error) {
	shards := s.tree.topo.Shards
	digests := make([]*transport.ShardDigest, shards)
	lost := make(map[int]bool, shards)
	await := shards
	for i := 0; i < shards; i++ {
		if s.treeTol && s.opts.Faults.LeafCrashesAt(i, t) {
			lost[i] = true
			await--
		}
	}
	markLost := func(shard int) {
		if shard >= 0 && shard < shards && !lost[shard] && digests[shard] == nil {
			lost[shard] = true
			await--
		}
	}
	var deadline time.Time
	if s.opts.LeafTimeout > 0 {
		deadline = time.Now().Add(s.opts.LeafTimeout)
	}
	for await > 0 {
		wait := rootWaitSlice
		if !deadline.IsZero() {
			until := time.Until(deadline)
			if until <= 0 {
				break
			}
			if until < wait {
				wait = until
			}
		}
		e, err := s.tree.rootRx.recv(wait)
		if errors.Is(err, errRecvTimeout) {
			continue // the loop head re-checks the deadline
		}
		var gone *peerGoneError
		if errors.As(err, &gone) && s.treeTol {
			markLost(gone.id)
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("distrib: root recv: %w", err)
		}
		if e.Kind != transport.KindShardDigest || e.Round != t {
			if s.treeTol {
				s.rs.stale.Add(1)
				continue
			}
			return nil, nil, fmt.Errorf("distrib: root got kind %v round %d during round %d", e.Kind, e.Round, t)
		}
		var d transport.ShardDigest
		if derr := transport.Decode(e.Payload, &d); derr != nil {
			if s.treeTol {
				s.rs.corrupt.Add(1)
				markLost(e.From)
				continue
			}
			return nil, nil, derr
		}
		if verr := d.Validate(); verr != nil {
			if s.treeTol {
				s.rs.corrupt.Add(1)
				markLost(e.From)
				continue
			}
			return nil, nil, verr
		}
		if d.Shard < 0 || d.Shard >= shards || d.Shard != e.From {
			if s.treeTol {
				s.rs.corrupt.Add(1)
				markLost(e.From)
				continue
			}
			return nil, nil, fmt.Errorf("distrib: digest labeled shard %d arrived from leaf %d", d.Shard, e.From)
		}
		if digests[d.Shard] != nil || lost[d.Shard] {
			if s.treeTol {
				s.rs.digestDups.Add(1)
				continue
			}
			return nil, nil, fmt.Errorf("distrib: duplicate digest from shard %d in round %d", d.Shard, t)
		}
		digests[d.Shard] = &d
		await--
		s.noteShardDigest(d.Shard, t)
	}
	var lostList []int
	for i := 0; i < shards; i++ {
		if digests[i] != nil {
			continue
		}
		if !lost[i] {
			// Neither crashed nor attributably corrupt: the digest simply
			// missed the deadline.
			s.rs.leafTimeouts.Add(1)
		}
		lostList = append(lostList, i)
		s.noteShardLost(i)
	}
	return digests, lostList, nil
}

// mergeDigests folds the shard digests into engine partials plus the
// round's merged membership report (Σ heard, concatenated missing — already
// ascending because shards are ascending contiguous ranges). A lost shard
// contributes a nil partial (engine.MergeExact and MergeCompact skip them)
// and its whole cohort slice to missing, so a degraded tree round reports
// exactly the clients the merge never saw. The first shard-order Err becomes
// the round error with its text intact, so the round close a tree run fans
// on failure carries the same message a flat run's would.
func (s *Service) mergeDigests(digests []*transport.ShardDigest, cohorts [][]int, lostShards []int) (*roundReport, []*engine.Partial, int, error) {
	stop := s.rec.Span(obs.PhaseRootMerge)
	defer stop()
	parts := make([]*engine.Partial, len(digests))
	report := &roundReport{missing: make([]int, 0), lostShards: lostShards}
	count := 0
	var roundErr error
	for i, d := range digests {
		if d == nil {
			report.missing = append(report.missing, cohorts[i]...)
			continue
		}
		report.cohort += d.Heard
		report.missing = append(report.missing, d.Missing...)
		if d.Err != "" {
			if roundErr == nil {
				roundErr = errors.New(d.Err)
			}
			continue
		}
		if s.tree.topo.Compact {
			p := &engine.Partial{Shard: i, Compact: true, Weight: d.Weight, Count: d.Count}
			if d.HasSum {
				sum, perr := d.Sum.ToPayload()
				if perr != nil {
					if roundErr == nil {
						roundErr = perr
					}
					continue
				}
				p.Sum = sum
			}
			parts[i] = p
			count += d.Count
			continue
		}
		p := engine.NewExactPartial(i)
		for _, su := range d.Uploads {
			pay, perr := su.Payload.ToPayload()
			if perr == nil {
				perr = s.runner.PartialReduce(p, engine.Upload{Client: su.Client, Payload: pay})
			}
			if perr != nil {
				if roundErr == nil {
					roundErr = perr
				}
				break
			}
		}
		parts[i] = p
		count += len(p.Uploads)
	}
	return report, parts, count, roundErr
}
