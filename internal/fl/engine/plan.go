package engine

import (
	"sort"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
)

// Plan is one round as a value: who takes part and what each member trains
// against. Runner.Plan builds it once and whichever driver runs the round
// executes it — Runner.Round in-process, internal/distrib over a transport —
// closing it with Aggregate and Commit, so the drivers cannot diverge on what
// a round is. An async buffer flush is a plan too: a different cohort,
// per-member starts, and the staleness facts below.
type Plan struct {
	// Round is the round (or flush) index.
	Round int
	// Cohort lists the members, ascending.
	Cohort []int
	// Starts[i] is the codec-applied global Cohort[i] downloads and trains
	// against (nil when the algorithm front-loads nothing). A synchronous
	// round's members share one pointer; a flush member holds the global it
	// retained at its last refresh.
	Starts []*Payload
	// Staleness[i] is Cohort[i]'s model-version staleness and Weights[i] its
	// weight 1/(1+s)^α; Clock is the logical time the flush completes (the
	// latest arrival among the cohort). All three are zero — Weights nil —
	// for a synchronous round.
	Staleness []int
	Weights   []float64
	Clock     uint64

	r *Runner
}

// Plan plans round t over the eligible clients (nil means the whole fleet;
// internal/distrib passes its registry's population), of which only those
// the availability trace puts online take part. A synchronous round's cohort
// is all of them — or a ClientFraction sample — and shares round t's
// front-loaded global; in async mode the round is a buffer flush (planFlush).
// Planning bills nothing and leaves the round counter alone; the only state
// it touches is a flush's one-time initial dispatch.
func (r *Runner) Plan(t int, eligible []int) (*Plan, error) {
	online := r.Online(t, eligible)
	if r.async != nil {
		return r.planFlush(t, online)
	}
	p := &Plan{Round: t, Cohort: r.sample(t, online), r: r}
	// Under a compressing codec clients receive (and train against) the
	// transcoded global.
	global := r.hooks.GlobalState(t).ApplyCodec(r.codec, nil)
	p.Starts = make([]*Payload, len(p.Cohort))
	for i := range p.Starts {
		p.Starts[i] = global
	}
	return p, nil
}

// flush reports whether the plan is an async buffer flush.
func (p *Plan) flush() bool { return p.Weights != nil }

// Ref returns the delta reference Cohort[i]'s upload decodes against: its
// start's params when the codec delta-codes params — both ends hold exactly
// those values — and nil otherwise.
func (p *Plan) Ref(i int) []float64 {
	if p.Starts[i] == nil || p.r.codec.ParamsSection(true) != comm.SectionDeltaF32 {
		return nil
	}
	return p.Starts[i].Params
}

// Aggregate runs the algorithm's Aggregate over the plan's surviving uploads
// (sorted by client id, each a cohort member). A flush staleness-weights them
// first through WeightStalePayload, anchored at the server's current global.
func (p *Plan) Aggregate(uploads []Upload) (*Payload, error) {
	r := p.r
	if p.flush() {
		anchor := r.hooks.GlobalState(p.Round)
		weighted := make([]Upload, len(uploads))
		for i, up := range uploads {
			w := 1.0
			if j := sort.SearchInts(p.Cohort, up.Client); j < len(p.Cohort) && p.Cohort[j] == up.Client {
				w = p.Weights[j]
			}
			weighted[i] = Upload{Client: up.Client, Payload: WeightStalePayload(up.Payload, w, anchor)}
		}
		uploads = weighted
	}
	return r.hooks.Aggregate(r.Context(p.Round), uploads)
}

// Commit closes an executed plan; a synchronous round has nothing to commit.
// A flush advances the async state past it: the clock moves to the flush's
// completion time, every contributor is refreshed with the post-aggregation
// global (version Round+1) and its next arrival is drawn from the schedule,
// and a member that failed to contribute (failure model) keeps its stale
// dispatch with a re-drawn arrival. The flush is recorded in the history's
// Flushes list and in the obs trace.
func (p *Plan) Commit(contributors []int) {
	if !p.flush() {
		return
	}
	r := p.r
	st := r.async
	st.clock = p.Clock
	contributed := make(map[int]bool, len(contributors))
	for _, c := range contributors {
		contributed[c] = true
	}
	var fresh *Payload
	freshSet := false
	staleness := make([]int, 0, len(contributors))
	for i, c := range p.Cohort {
		if !contributed[c] {
			st.attempts[c]++
			st.ready[c] = st.clock + st.opts.Schedule.Delay(c, st.dispatchVersion[c], st.attempts[c])
			continue
		}
		staleness = append(staleness, p.Staleness[i])
		if !freshSet {
			fresh = retainPayload(r.hooks.GlobalState(p.Round+1).ApplyCodec(r.codec, nil))
			freshSet = true
		}
		st.dispatched[c] = fresh
		st.dispatchVersion[c] = p.Round + 1
		st.attempts[c] = 0
		st.ready[c] = st.clock + st.opts.Schedule.Delay(c, p.Round+1, 0)
	}
	r.ensureHistory().AddFlush(fl.AsyncFlush{
		Flush:        p.Round,
		Clock:        p.Clock,
		Contributors: append([]int(nil), contributors...),
		Staleness:    staleness,
	})
	r.rec.SetAsync(obs.AsyncTrace{
		Buffer:    st.opts.BufferSize,
		Occupancy: len(contributors),
		Clock:     p.Clock,
		Staleness: append([]int(nil), staleness...),
	})
}
