package distrib

import (
	"errors"
	"fmt"
	"sync"

	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
	"fedpkd/internal/transport"
)

// root is the top of the two-tier tree. It never touches per-client
// connections or uploads — it partitions the round's cohort into contiguous
// shard slices (index ranges over the cohort, no copies), encodes the round
// framing ONCE, hands each leaf its assignment, collects exactly one digest
// per shard, decodes each digest's forwarded uploads into a per-shard partial
// as it files the digest, merges the partials, and runs the algorithm's
// Aggregate over the merged result.
//
// The type holds the root to two invariants. It knows its leaves only as
// children — never the population size — so everything it allocates is sized
// by the shard count. And it has no inbox: digests reach it only through
// collector, the shared collect loop under the tier plane's deadline, so it
// cannot block on a lost digest.
//
// Because shards are contiguous id ranges, concatenating the per-shard
// sorted uploads in shard order reproduces the globally client-sorted slice,
// so the root's Aggregate call is bit-identical to the flat server's — the
// equivalence the tree goldens pin.
type root struct {
	runner *engine.Runner
	rec    *obs.Recorder
	opts   *Options
	// send ships one envelope down the tier fabric, routed by its To.
	send func(*transport.Envelope) error
	// collector returns round t's collector over the tier fabric's inbox,
	// awaiting one child per shard.
	collector func(t int, l ladder) *collector

	// mu guards each child's health record, which the operator's status reads
	// while the root collects and the leaves retry.
	mu       sync.Mutex
	children []shardChild
}

// shardChild is what the root knows of one leaf: where its contiguous client
// id range ends (it starts where the previous child's ends) and its liveness
// profile.
type shardChild struct {
	end    int
	health ShardHealth
}

// shardCohorts partitions a sorted cohort into per-shard sub-slices. The
// sub-slices share the cohort's backing array — the root partitions by index
// ranges and never copies per-client state.
func (r *root) shardCohorts(cohort []int) [][]int {
	out := make([][]int, len(r.children))
	lo := 0
	for i := range r.children {
		hi := lo
		for hi < len(cohort) && cohort[hi] < r.children[i].end {
			hi++
		}
		out[i] = cohort[lo:hi]
		lo = hi
	}
	return out
}

// round runs the root's side of one round plan, returning the merged
// membership report and the round error exactly as serverRound does for the
// flat path. The plan's shared start rides every assignment; a client's
// override (a flush's retained global and delta reference) rides its own
// ClientStart. A flush's staleness weighting runs here, over the merged
// uploads — the computation the flat server performs.
func (r *root) round(plan *roundPlan) (*roundReport, error) {
	t, runner := plan.Round, r.runner
	shards := len(r.children)

	cohorts := r.shardCohorts(plan.Cohort)
	err := r.assign(plan, cohorts)
	plan.release()
	if err != nil {
		return nil, err
	}

	digests := make([]*transport.ShardDigest, shards)
	parts := make([]*engine.Partial, shards)
	// The merged uploads hold the params vectors the digests' uploads decoded
	// into: they go back once Aggregate is done and the close is sent.
	defer func() {
		for _, d := range digests {
			releaseDigest(d)
		}
	}()
	heard, _, err := r.collector(t, r.digestLadder(digests, parts, plan.ref)).collect()
	if err != nil {
		return nil, err
	}
	var lost []int
	for _, i := range heard.missing {
		lost = append(lost, i)
		r.note(i, func(h *ShardHealth) { h.Lost++ })
	}
	report, count, roundErr := r.mergeDigests(digests, parts, cohorts, lost)

	if roundErr == nil && r.opts.ShardQuorum > 0 && heard.cohort < r.opts.ShardQuorum {
		roundErr = fmt.Errorf("%w: %s %d merged %d of %d shard digests, quorum %d",
			ErrShardQuorumNotMet, plan.noun(), t, heard.cohort, shards, r.opts.ShardQuorum)
	}
	if roundErr == nil && r.opts.MinQuorum > 0 && count < r.opts.MinQuorum {
		roundErr = fmt.Errorf("%w: %s %d aggregated %d of %d required uploads", ErrQuorumNotMet, plan.noun(), t, count, r.opts.MinQuorum)
	}
	var bcast *engine.Payload
	if roundErr == nil && count > 0 {
		if uploads, merr := engine.MergeExact(parts); merr != nil {
			roundErr = merr
		} else {
			report.contributed(uploads)
			bcast, roundErr = plan.Aggregate(uploads)
		}
	}
	end, roundErr, fatal := buildRoundEnd(t, runner.Codec(), bcast, roundErr)
	if fatal != nil {
		return report, fatal
	}
	// Every leaf gets the encoded round close with its billing facts, so each
	// can close its shard exactly as the flat server would have.
	defer end.release()
	for i := range r.children {
		se := transport.ShardEnd{Round: t, Shard: i, End: end.bytes, HasBroadcast: end.knowledge, EndRaw: end.raw}
		if err := r.sendDown(transport.KindShardEnd, i, t, se); err != nil {
			return report, err
		}
	}
	return report, roundErr
}

// assign sends every leaf its shard's assignment: the plan's shared start,
// and each member's override where it has one.
func (r *root) assign(plan *roundPlan, cohorts [][]int) error {
	shared := plan.shared
	for i, members := range cohorts {
		sa := transport.ShardAssign{
			Round: plan.Round, Shard: i,
			Start: shared.bytes, HasGlobal: shared.knowledge, StartRaw: shared.raw, Ref: shared.ref,
			Clients: make([]transport.ClientStart, len(members)),
		}
		for j, c := range members {
			cs := transport.ClientStart{Client: c}
			if o, ok := plan.override[c]; ok {
				cs.Start, cs.HasGlobal, cs.StartRaw, cs.Ref = o.bytes, o.knowledge, o.raw, o.ref
			}
			sa.Clients[j] = cs
		}
		if err := r.sendDown(transport.KindShardAssign, i, plan.Round, &sa); err != nil {
			return err
		}
	}
	return nil
}

// sendDown ships one round-framing message (an assignment or a close) to a
// leaf and bills the tier backhaul.
func (r *root) sendDown(kind transport.Kind, shard, t int, msg any) error {
	env := &transport.Envelope{Kind: kind, From: -1, To: shard, Round: t}
	if err := env.Encode(msg); err != nil {
		return err
	}
	defer env.Release()
	if err := r.send(env); err != nil {
		return fmt.Errorf("distrib: root send %v to shard %d: %w", kind, shard, err)
	}
	r.runner.Ledger().AddTierDown(env.WireSize())
	return nil
}

// digestLadder is the tier's ladder: it validates one shard digest, decodes
// its forwarded uploads into the shard's partial — each against ref(client),
// the delta reference that client trained from — and files both under the
// shard. A corrupt or misrouted digest, or one whose uploads fail to decode,
// is attributable to the leaf whose link it arrived on, so the tolerant tier
// writes that shard off; a duplicate — or a digest for a shard already
// written off — is rejected.
func (r *root) digestLadder(digests []*transport.ShardDigest, parts []*engine.Partial, ref func(client int) []float64) ladder {
	return func(c *collector, e *transport.Envelope) {
		pl := c.pl
		if e.Kind != transport.KindShardDigest || e.Round != c.t {
			c.reject(&pl.stale, fmt.Errorf("distrib: root got kind %v round %d during round %d", e.Kind, e.Round, c.t))
			return
		}
		var d transport.ShardDigest
		derr := transport.Decode(e.Payload, &d)
		e.Release()
		filed := false
		defer func() {
			if !filed {
				releaseDigest(&d)
			}
		}()
		if derr != nil {
			c.rejectFrom(e.From, &pl.corrupt, derr)
			return
		}
		if verr := d.Validate(); verr != nil {
			c.rejectFrom(e.From, &pl.corrupt, verr)
			return
		}
		if d.Shard != e.From || c.state[d.Shard] == absent {
			c.rejectFrom(e.From, &pl.corrupt, fmt.Errorf("distrib: digest labeled shard %d arrived from leaf %d", d.Shard, e.From))
			return
		}
		if c.state[d.Shard] != pending {
			c.reject(&pl.dup, fmt.Errorf("distrib: duplicate digest from shard %d in round %d", d.Shard, c.t))
			return
		}
		part, perr := decodeDigest(&d, ref)
		if perr != nil {
			c.rejectFrom(e.From, &pl.corrupt, fmt.Errorf("distrib: shard %d digest: %w", d.Shard, perr))
			return
		}
		c.accept(d.Shard)
		digests[d.Shard], parts[d.Shard], filed = &d, part, true
		r.note(d.Shard, func(h *ShardHealth) { h.LastDigestRound = c.t })
	}
}

// decodeDigest decodes d's forwarded uploads into the shard's partial, each
// against ref(client). Each upload's wire Params is pointed at the vector its
// decoded payload holds — its raw vector, or the one a packed section
// unpacked into — so releaseDigest returns every vector d's uploads hold,
// decoded or not, whatever the codec. A digest that carries a shard error
// carries no uploads to aggregate: its partial is nil.
func decodeDigest(d *transport.ShardDigest, ref func(client int) []float64) (*engine.Partial, error) {
	if d.Err != "" {
		return nil, nil
	}
	part := engine.NewExactPartial(d.Shard)
	for i := range d.Uploads {
		su := &d.Uploads[i]
		p, err := su.Payload.ToPayloadRef(ref(su.Client))
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", su.Client, err)
		}
		su.Payload.Params = p.Params
		if err := part.Insert(engine.Upload{Client: su.Client, Payload: p}); err != nil {
			return nil, err
		}
	}
	return part, nil
}

// releaseDigest returns the params vectors d's uploads hold (decodeDigest);
// a nil d holds none.
func releaseDigest(d *transport.ShardDigest) {
	if d == nil {
		return
	}
	for i := range d.Uploads {
		transport.ReleaseVector(d.Uploads[i].Payload.Params)
	}
}

// note updates one shard's health record.
func (r *root) note(shard int, update func(*ShardHealth)) {
	r.mu.Lock()
	update(&r.children[shard].health)
	r.mu.Unlock()
}

// health snapshots every shard's health record, in shard order.
func (r *root) health() []ShardHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardHealth, len(r.children))
	for i := range r.children {
		out[i] = r.children[i].health
	}
	return out
}

// mergeDigests folds the filed shard digests into the round's merged
// membership report (Σ heard, concatenated missing — already ascending
// because shards are ascending contiguous ranges) and counts the uploads the
// decoded partials hold. A lost shard has a nil partial (engine.MergeExact
// skips them) and contributes its whole cohort slice to missing, so a
// degraded tree round reports exactly the clients the merge never saw. The
// first shard-order Err becomes the round error with its text intact, so the
// round close a tree run fans on failure carries the same message a flat
// run's would.
func (r *root) mergeDigests(digests []*transport.ShardDigest, parts []*engine.Partial, cohorts [][]int, lostShards []int) (*roundReport, int, error) {
	stop := r.rec.Span(obs.PhaseRootMerge)
	defer stop()
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
		if d.Err != "" && roundErr == nil {
			roundErr = errors.New(d.Err)
		}
		if parts[i] != nil {
			count += len(parts[i].Uploads)
		}
	}
	return report, count, roundErr
}
