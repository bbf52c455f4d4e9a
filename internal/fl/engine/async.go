package engine

import (
	"fmt"
	"math"
	"sort"

	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
)

// This file is the asynchronous, barrier-free execution mode (FedBuff-style:
// buffer the first K arrivals, weight each by staleness, aggregate, refresh
// the contributors — the server never waits for the full cohort). The hard
// requirement is deterministic replay: client "arrival" order is decided by a
// seeded logical clock (ArrivalSchedule), a pure function of (seed, client,
// version) in the style of internal/faults, so the same seed produces the
// same flush sequence in-process and over any transport, and async runs are
// pinned by byte-exact goldens like every other mode. See DESIGN.md §11.

// Arrival-schedule salts. Each draw kind has its own stream so changing one
// knob never shifts another kind's pattern (the internal/faults discipline).
const (
	saltAsyncStraggler uint64 = iota + 101
	saltAsyncDelay
)

// asyncMix folds draw coordinates into one stream label (splitmix64-style
// finalization, applied per field so permuted inputs never collide). It is
// the same construction internal/faults uses; duplicated here because the
// import direction runs the other way (faults → transport → engine).
func asyncMix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// ArrivalSchedule is the seeded logical clock of the async mode: it decides,
// deterministically, how many logical ticks each client needs between
// receiving a global model and delivering its update. Every draw is a pure
// function of (Seed, client, version, attempt) — no state feeds the draws, so
// arrival order is identical across runs and across transports.
type ArrivalSchedule struct {
	// Seed drives every draw. Two schedules with the same Seed order the
	// same arrivals identically.
	Seed uint64
	// MinTicks and MaxTicks bound a client's base turnaround delay in
	// logical ticks (defaults 10 and 100); the draw is uniform in
	// [MinTicks, MaxTicks].
	MinTicks, MaxTicks uint64
	// StragglerFrac is the fraction of clients that are stragglers (drawn
	// once per client from the seed); their delays are multiplied by
	// StragglerFactor. Zero disables the straggler model.
	StragglerFrac float64
	// StragglerFactor is the delay multiplier for stragglers (default 4).
	StragglerFactor uint64
}

// WithDefaults fills unset fields with the defaults.
func (s ArrivalSchedule) WithDefaults() ArrivalSchedule {
	if s.MinTicks == 0 {
		s.MinTicks = 10
	}
	if s.MaxTicks == 0 {
		s.MaxTicks = 100
	}
	if s.StragglerFactor == 0 {
		s.StragglerFactor = 4
	}
	return s
}

// Validate rejects inconsistent schedules (after defaulting).
func (s ArrivalSchedule) Validate() error {
	if s.MaxTicks < s.MinTicks {
		return fmt.Errorf("engine: ArrivalSchedule MaxTicks %d < MinTicks %d", s.MaxTicks, s.MinTicks)
	}
	if s.StragglerFrac < 0 || s.StragglerFrac > 1 {
		return fmt.Errorf("engine: ArrivalSchedule StragglerFrac must be in [0,1], got %v", s.StragglerFrac)
	}
	return nil
}

// IsStraggler reports whether the schedule marks client c a straggler. Pure:
// one draw per client, independent of rounds and versions.
func (s ArrivalSchedule) IsStraggler(c int) bool {
	if s.StragglerFrac <= 0 {
		return false
	}
	u := stats.Split(s.Seed, asyncMix(saltAsyncStraggler, uint64(c)+1)).Float64()
	return u < s.StragglerFrac
}

// Delay returns the logical ticks client c needs to turn around the global
// model of the given version. attempt > 0 re-draws after a missed flush
// (timeout or crash under the failure model), so a failed client's next
// arrival is rescheduled rather than replayed.
func (s ArrivalSchedule) Delay(c, version, attempt int) uint64 {
	s = s.WithDefaults()
	span := s.MaxTicks - s.MinTicks + 1
	label := asyncMix(saltAsyncDelay, uint64(c)+1, uint64(version)+2, uint64(attempt)+3)
	d := s.MinTicks + stats.Split(s.Seed, label).Uint64()%span
	if s.IsStraggler(c) {
		d *= s.StragglerFactor
	}
	return d
}

// AsyncOptions configures the asynchronous execution mode.
type AsyncOptions struct {
	// BufferSize is K: the server aggregates as soon as the K earliest
	// pending arrivals are in, refreshing only those contributors.
	BufferSize int
	// StalenessAlpha is α in the staleness weight 1/(1+s)^α applied to each
	// buffered update; 0 means the default, 0.5.
	StalenessAlpha float64
	// Schedule is the seeded logical arrival clock.
	Schedule ArrivalSchedule
}

// withDefaults fills unset fields.
func (o AsyncOptions) withDefaults() AsyncOptions {
	if o.StalenessAlpha == 0 {
		o.StalenessAlpha = 0.5
	}
	o.Schedule = o.Schedule.WithDefaults()
	return o
}

// WeightStalePayload is the staleness weighting every algorithm shares. The
// damping contract,
// per payload section (w = weight, in (0,1]):
//
//   - Params with a shape-matching anchor: g + w·(u−g) — the client's model
//     delta is scaled, so a fully stale update (w→0) contributes the current
//     global unchanged (the FedBuff rule for the FedAvg family).
//   - Logits (not LogitsLocal): scaled by w. Scaling flattens the stale
//     client's distribution toward uniform, which both softens its pseudo
//     labels and lowers its variance — under mean and variance-weighted
//     ensembles alike, its pull on the consensus shrinks with w.
//   - Prototypes: per-class sample counts scaled by w (floor 1), leaving the
//     centroid untouched — Eq. 8's count weighting is exactly the
//     aggregation weight, so stale prototypes count as fewer samples.
//   - Everything else (indices, NumSamples, LogitsLocal logits, counted-only
//     params) passes through unchanged.
//
// A weight of 1 (staleness 0) returns p unchanged, bit for bit.
func WeightStalePayload(p *Payload, weight float64, anchor *Payload) *Payload {
	if p == nil || weight >= 1 {
		return p
	}
	out := *p
	if p.Logits != nil && !p.LogitsLocal {
		m := p.Logits.Clone()
		for i := range m.Data {
			m.Data[i] *= weight
		}
		out.Logits = m
	}
	if p.Protos != nil {
		s := proto.NewSet(p.Protos.Classes, p.Protos.Dim)
		for class, vec := range p.Protos.Vectors {
			s.Vectors[class] = append([]float64(nil), vec...)
			n := int(weight*float64(p.Protos.Counts[class]) + 0.5)
			if n < 1 {
				n = 1
			}
			s.Counts[class] = n
		}
		out.Protos = s
	}
	if len(p.Params) > 0 && anchor != nil && len(anchor.Params) == len(p.Params) {
		v := make([]float64, len(p.Params))
		for i, g := range anchor.Params {
			v[i] = g + weight*(p.Params[i]-g)
		}
		out.Params = v
	}
	return &out
}

// StalenessWeight returns 1/(1+s)^α.
func StalenessWeight(staleness int, alpha float64) float64 {
	if staleness <= 0 || alpha == 0 {
		return 1
	}
	return math.Pow(1+float64(staleness), -alpha)
}

// asyncState is the engine's barrier-free bookkeeping: the logical clock,
// and per client the version of the global it holds, the logical time its
// next update is due, and the retained global payload it trains against.
type asyncState struct {
	opts    AsyncOptions
	started bool
	clock   uint64

	dispatchVersion []int
	ready           []uint64
	attempts        []int
	dispatched      []*Payload
}

// SetAsync switches the runner into asynchronous mode: every subsequent
// Round() executes one buffer flush instead of one barrier round. Call
// before the first round (or before resuming an async checkpoint). Async
// mode requires full participation — the arrival schedule owns client
// availability — so ClientFraction and ClientDropProb must be unset.
func (r *Runner) SetAsync(opts AsyncOptions) error {
	n := r.cfg.Env.Cfg.NumClients
	opts = opts.withDefaults()
	if opts.BufferSize < 1 || opts.BufferSize > n {
		return fmt.Errorf("engine: async BufferSize %d out of range [1,%d]", opts.BufferSize, n)
	}
	if opts.StalenessAlpha < 0 {
		return fmt.Errorf("engine: async StalenessAlpha must be >= 0, got %v", opts.StalenessAlpha)
	}
	if err := opts.Schedule.Validate(); err != nil {
		return err
	}
	if f := r.cfg.ClientFraction; f != 0 && f != 1 {
		return fmt.Errorf("engine: async mode needs full participation; ClientFraction %v unsupported", f)
	}
	if r.cfg.ClientDropProb != 0 {
		return fmt.Errorf("engine: async mode models availability via the arrival schedule; ClientDropProb %v unsupported", r.cfg.ClientDropProb)
	}
	r.async = &asyncState{
		opts:            opts,
		dispatchVersion: make([]int, n),
		ready:           make([]uint64, n),
		attempts:        make([]int, n),
		dispatched:      make([]*Payload, n),
	}
	return nil
}

// Async returns the active async options, or nil in (default) synchronous
// mode. Drivers (internal/distrib, cmd) use it to pick the round shape.
func (r *Runner) Async() *AsyncOptions {
	if r.async == nil {
		return nil
	}
	o := r.async.opts
	return &o
}

// AsyncClock returns the current logical time (ticks elapsed on the arrival
// schedule's clock) — the async mode's simulated wall-clock.
func (r *Runner) AsyncClock() uint64 {
	if r.async == nil {
		return 0
	}
	return r.async.clock
}

// AsyncFlushPlan describes one buffer flush: which clients' updates arrive
// (the K earliest on the logical clock), with what staleness and weight, and
// the retained global payload each trained against. Built by AsyncPlanFlush,
// consumed by the engine's own flush and by internal/distrib's transport
// flush — one planner, so the two drivers cannot diverge.
type AsyncFlushPlan struct {
	// Flush is the flush index (the engine's round counter).
	Flush int
	// Clock is the logical time the flush completes: the latest arrival
	// among the chosen.
	Clock uint64
	// Chosen lists the contributing clients, sorted ascending.
	Chosen []int
	// Staleness[i] is Flush − dispatchVersion(Chosen[i]).
	Staleness []int
	// Weights[i] is the staleness weight 1/(1+s)^α for Chosen[i].
	Weights []float64
	// Dispatched[i] is the (codec-applied) global payload Chosen[i] holds —
	// what it trains against and delta-codes its upload against.
	Dispatched []*Payload
}

// retainPayload deep-copies the value-carrying sections of a payload so the
// async state's retained dispatches stay stable across hook mutations of
// server state.
func retainPayload(p *Payload) *Payload {
	if p == nil {
		return nil
	}
	out := *p
	if p.Logits != nil {
		out.Logits = p.Logits.Clone()
	}
	if len(p.Indices) > 0 {
		out.Indices = append([]int(nil), p.Indices...)
	}
	if p.Protos != nil {
		s := proto.NewSet(p.Protos.Classes, p.Protos.Dim)
		for class, vec := range p.Protos.Vectors {
			s.Vectors[class] = append([]float64(nil), vec...)
			s.Counts[class] = p.Protos.Counts[class]
		}
		out.Protos = s
	}
	if len(p.Params) > 0 {
		out.Params = append([]float64(nil), p.Params...)
	}
	return &out
}

// AsyncPlanFlush plans flush t over the full population: AsyncPlanFlushFrom
// with no eligibility restriction.
func (r *Runner) AsyncPlanFlush(t int) (*AsyncFlushPlan, error) {
	return r.AsyncPlanFlushFrom(t, nil)
}

// AsyncPlanFlushFrom plans flush t: on the first call it performs the
// initial dispatch (version-0 global to every client, arrivals drawn from
// the schedule), then selects the K eligible clients whose pending updates
// arrive earliest — ties broken by client id — and computes their staleness
// weights. eligible restricts the candidates (internal/distrib passes its
// registry's live population; nil means everyone), and an availability
// trace further filters them to the clients online at flush t. When fewer
// than K candidates remain the flush shrinks to match; zero candidates is
// an error — a server with nobody registered and online cannot flush. Pure
// given the async state; it mutates nothing but the one-time initial
// dispatch. Exposed for internal/distrib.
func (r *Runner) AsyncPlanFlushFrom(t int, eligible []int) (*AsyncFlushPlan, error) {
	st := r.async
	if st == nil {
		return nil, fmt.Errorf("engine: AsyncPlanFlush without SetAsync")
	}
	n := r.cfg.Env.Cfg.NumClients
	if !st.started {
		st.started = true
		g := retainPayload(r.hooks.GlobalState(0).ApplyCodec(r.codec, nil))
		for c := 0; c < n; c++ {
			st.dispatched[c] = g
			st.dispatchVersion[c] = 0
			st.ready[c] = st.opts.Schedule.Delay(c, 0, 0)
		}
	}
	var order []int
	if eligible == nil {
		order = make([]int, 0, n)
		for c := 0; c < n; c++ {
			order = append(order, c)
		}
	} else {
		order = append([]int(nil), eligible...)
	}
	if r.avail != nil {
		kept := order[:0]
		for _, c := range order {
			if r.avail.Online(c, t) {
				kept = append(kept, c)
			}
		}
		order = kept
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("engine: flush %d has no eligible online clients", t)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if st.ready[a] != st.ready[b] {
			return st.ready[a] < st.ready[b]
		}
		return a < b
	})
	k := st.opts.BufferSize
	if k > len(order) {
		k = len(order)
	}
	chosen := append([]int(nil), order[:k]...)
	sort.Ints(chosen)
	plan := &AsyncFlushPlan{
		Flush:      t,
		Chosen:     chosen,
		Staleness:  make([]int, k),
		Weights:    make([]float64, k),
		Dispatched: make([]*Payload, k),
	}
	for i, c := range chosen {
		if st.ready[c] > plan.Clock {
			plan.Clock = st.ready[c]
		}
		s := t - st.dispatchVersion[c]
		plan.Staleness[i] = s
		plan.Weights[i] = StalenessWeight(s, st.opts.StalenessAlpha)
		plan.Dispatched[i] = st.dispatched[c]
	}
	return plan, nil
}

// AsyncWeightUploads applies the staleness weighting to a flush's surviving
// uploads (sorted by client id, each a member of plan.Chosen) through
// WeightStalePayload. The anchor passed to the weighting is the server's
// current GlobalState at the flush index. Exposed for internal/distrib, so
// transport runs damp exactly like in-process ones.
func (r *Runner) AsyncWeightUploads(plan *AsyncFlushPlan, uploads []Upload) []Upload {
	anchor := r.hooks.GlobalState(plan.Flush)
	out := make([]Upload, len(uploads))
	for i, up := range uploads {
		w := 1.0
		for j, c := range plan.Chosen {
			if c == up.Client {
				w = plan.Weights[j]
				break
			}
		}
		out[i] = Upload{Client: up.Client, Payload: WeightStalePayload(up.Payload, w, anchor)}
	}
	return out
}

// AsyncCommitFlush advances the async state past flush t: the clock moves to
// the flush's completion time, every contributor is refreshed with the
// post-aggregation global (version t+1) and its next arrival is drawn from
// the schedule, and a chosen client that failed to contribute (failure model)
// keeps its stale dispatch with a re-drawn arrival. The flush is recorded in
// the history's Flushes list and in the obs trace. Exposed for
// internal/distrib.
func (r *Runner) AsyncCommitFlush(plan *AsyncFlushPlan, contributors []int) {
	st := r.async
	st.clock = plan.Clock
	contributed := make(map[int]bool, len(contributors))
	for _, c := range contributors {
		contributed[c] = true
	}
	var fresh *Payload
	freshSet := false
	staleness := make([]int, 0, len(contributors))
	for i, c := range plan.Chosen {
		if !contributed[c] {
			st.attempts[c]++
			st.ready[c] = st.clock + st.opts.Schedule.Delay(c, st.dispatchVersion[c], st.attempts[c])
			continue
		}
		staleness = append(staleness, plan.Staleness[i])
		if !freshSet {
			fresh = retainPayload(r.hooks.GlobalState(plan.Flush + 1).ApplyCodec(r.codec, nil))
			freshSet = true
		}
		st.dispatched[c] = fresh
		st.dispatchVersion[c] = plan.Flush + 1
		st.attempts[c] = 0
		st.ready[c] = st.clock + st.opts.Schedule.Delay(c, plan.Flush+1, 0)
	}
	r.ensureHistory().AddFlush(fl.AsyncFlush{
		Flush:        plan.Flush,
		Clock:        plan.Clock,
		Contributors: append([]int(nil), contributors...),
		Staleness:    staleness,
	})
	r.rec.SetAsync(obs.AsyncTrace{
		Buffer:    st.opts.BufferSize,
		Occupancy: len(contributors),
		Clock:     plan.Clock,
		Staleness: append([]int(nil), staleness...),
	})
	obs.RecordAsyncFlush(len(contributors), staleness)
}

// asyncFlush is the in-process body of one buffer flush — Round()'s async
// branch. The shape mirrors the synchronous Round: deliver globals, train,
// collect, aggregate, broadcast — but only over the flush's K contributors,
// with uploads staleness-weighted before aggregation.
func (r *Runner) asyncFlush(t int) error {
	plan, err := r.AsyncPlanFlush(t)
	if err != nil {
		return err
	}
	rc := r.Context(t)
	k := len(plan.Chosen)
	r.rec.SetWorkers(fl.Workers(k))
	if r.avail != nil {
		n := r.cfg.Env.Cfg.NumClients
		r.rec.SetChurn(obs.Churn{Registered: n, Online: len(r.Online(t)), Cohort: k})
	}

	// The contributors' globals were minted at their dispatch flush but are
	// billed here, at delivery: the wire carries them together with the
	// train order (see DESIGN.md §11 on delivery timing).
	for _, g := range plan.Dispatched {
		if n := g.WireBytesIn(r.codec); n > 0 {
			r.addDownload(n, g.WireBytes())
		}
	}

	payloads := make([]*Payload, k)
	err = fl.ForEachClient(k, func(i int) error {
		c := plan.Chosen[i]
		stopTrain := r.rec.ClientSpan(c)
		up, err := r.hooks.LocalUpdate(rc, c, plan.Dispatched[i])
		stopTrain()
		if err != nil {
			return err
		}
		payloads[i] = up
		return nil
	})
	if err != nil {
		return err
	}

	uploads := make([]Upload, 0, k)
	for i, c := range plan.Chosen {
		if payloads[i] == nil {
			continue
		}
		// Uploads delta-code against the global the client actually holds —
		// its own dispatched version, not the server's current one.
		var ref []float64
		if plan.Dispatched[i] != nil {
			ref = plan.Dispatched[i].Params
		}
		up := payloads[i].ApplyCodec(r.codec, ref)
		r.addUpload(up.WireBytesIn(r.codec), up.WireBytes())
		uploads = append(uploads, Upload{Client: c, Payload: up})
	}

	if len(uploads) > 0 {
		bcast, err := r.hooks.Aggregate(rc, r.AsyncWeightUploads(plan, uploads))
		if err != nil {
			return err
		}
		if bcast != nil {
			bcast = bcast.ApplyCodec(r.codec, nil)
			bcastBytes := bcast.WireBytesIn(r.codec)
			bcastRaw := bcast.WireBytes()
			err = fl.ForEachClient(k, func(i int) error {
				c := plan.Chosen[i]
				r.addDownload(bcastBytes, bcastRaw)
				stopPublic := r.rec.Span(obs.PhaseClientPublic)
				derr := r.hooks.Digest(rc, c, bcast)
				stopPublic()
				return derr
			})
			if err != nil {
				return err
			}
		}
	}

	r.AsyncCommitFlush(plan, plan.Chosen)
	return nil
}
