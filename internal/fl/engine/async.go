package engine

import (
	"fmt"
	"math"
	"sort"

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
// pinned by byte-exact goldens like every other mode. See DESIGN.md §3.

// Arrival-schedule salts. Each draw kind has its own stream so changing one
// knob never shifts another kind's pattern (the internal/faults discipline).
const (
	saltAsyncStraggler uint64 = iota + 101
	saltAsyncDelay
)

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
	u := stats.Split(s.Seed, stats.Mix(saltAsyncStraggler, uint64(c)+1)).Float64()
	return u < s.StragglerFrac
}

// Delay returns the logical ticks client c needs to turn around the global
// model of the given version. attempt > 0 re-draws after a missed flush
// (timeout or crash under the failure model), so a failed client's next
// arrival is rescheduled rather than replayed.
func (s ArrivalSchedule) Delay(c, version, attempt int) uint64 {
	s = s.WithDefaults()
	span := s.MaxTicks - s.MinTicks + 1
	label := stats.Mix(saltAsyncDelay, uint64(c)+1, uint64(version)+2, uint64(attempt)+3)
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

// planFlush plans flush t over the candidates (the online eligible clients,
// ascending): on the first call it performs the initial dispatch (version-0
// global to every client, arrivals drawn from the schedule), then selects the
// K candidates whose pending updates arrive earliest — ties broken by client
// id — and computes their staleness weights. When fewer than K candidates
// remain the flush shrinks to match; zero candidates is an error — a server
// with nobody registered and online cannot flush.
func (r *Runner) planFlush(t int, candidates []int) (*Plan, error) {
	st := r.async
	if !st.started {
		st.started = true
		g := retainPayload(r.hooks.GlobalState(0).ApplyCodec(r.codec, nil))
		for c := range st.dispatched {
			st.dispatched[c] = g
			st.dispatchVersion[c] = 0
			st.ready[c] = st.opts.Schedule.Delay(c, 0, 0)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("engine: flush %d has no eligible online clients", t)
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if st.ready[a] != st.ready[b] {
			return st.ready[a] < st.ready[b]
		}
		return a < b
	})
	k := min(st.opts.BufferSize, len(candidates))
	chosen := append([]int(nil), candidates[:k]...)
	sort.Ints(chosen)
	p := &Plan{
		Round:     t,
		Cohort:    chosen,
		Starts:    make([]*Payload, k),
		Staleness: make([]int, k),
		Weights:   make([]float64, k),
		r:         r,
	}
	for i, c := range chosen {
		p.Clock = max(p.Clock, st.ready[c])
		s := t - st.dispatchVersion[c]
		p.Staleness[i] = s
		p.Weights[i] = StalenessWeight(s, st.opts.StalenessAlpha)
		p.Starts[i] = st.dispatched[c]
	}
	return p, nil
}
