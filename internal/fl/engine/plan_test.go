package engine

import (
	"reflect"
	"slices"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
)

// globalToy is toyHooks with a front-loaded global, so a synchronous plan's
// shared start is a real payload rather than nil.
type globalToy struct{ toyHooks }

func (h *globalToy) GlobalState(round int) *Payload {
	return &Payload{Params: []float64{float64(round), 1}}
}

// TestPlan is the table over the one planner. Synchronous rows pin the plan
// to Participants and to one shared start; flush rows pin cohort, staleness,
// weights and clock to constants the previous flush planner produced for the
// same runner state, so no draw moved.
func TestPlan(t *testing.T) {
	trace := &AvailabilityTrace{Seed: 3, Period: 3} // 8 clients, round 2: {0,1,3,6,7} online
	syncRunner := func(fraction float64, tr *AvailabilityTrace) func(*testing.T) *Runner {
		return func(t *testing.T) *Runner {
			r, err := NewRunner(&globalToy{toyHooks{name: "Toy"}}, Config{
				Env: &fl.Env{Cfg: fl.EnvConfig{NumClients: 8}}, Seed: 5, ClientFraction: fraction,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.SetAvailability(tr); err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	// flushRunner is asyncToyRunner(seed 7: 4 clients, K=2) after some flushes.
	flushRunner := func(tr *AvailabilityTrace, flushes int) func(*testing.T) *Runner {
		return func(t *testing.T) *Runner {
			r, _ := asyncToyRunner(t, 7)
			if err := r.SetAvailability(tr); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(flushes); err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	cases := []struct {
		name     string
		runner   func(*testing.T) *Runner
		round    int
		eligible []int
		// want holds a flush's expected facts, or a synchronous round's cohort
		// when eligible restricts it (nil: Participants(round)).
		want Plan
	}{
		{name: "sync", runner: syncRunner(0, nil), round: 2},
		{name: "sync trace", runner: syncRunner(0, trace), round: 2},
		{name: "sync fraction", runner: syncRunner(0.5, nil), round: 2},
		{name: "sync trace fraction", runner: syncRunner(0.5, trace), round: 2},
		{name: "sync trace eligible", runner: syncRunner(0, trace), round: 2, eligible: []int{1, 2, 3, 5, 6},
			want: Plan{Cohort: []int{1, 3, 6}}},
		{name: "flush", runner: flushRunner(nil, 3), round: 3,
			want: Plan{Cohort: []int{0, 3}, Staleness: []int{0, 1}, Weights: []float64{1, 0.7071067811865475}, Clock: 174}},
		{name: "flush eligible", runner: flushRunner(nil, 3), round: 3, eligible: []int{1, 2, 3},
			want: Plan{Cohort: []int{2, 3}, Staleness: []int{0, 1}, Weights: []float64{1, 0.7071067811865475}, Clock: 208}},
		{name: "flush trace", runner: flushRunner(trace, 2), round: 2,
			want: Plan{Cohort: []int{0, 3}, Staleness: []int{0, 1}, Weights: []float64{1, 0.7071067811865475}, Clock: 109}},
		{name: "flush trace eligible", runner: flushRunner(trace, 2), round: 2, eligible: []int{1, 2},
			want: Plan{Cohort: []int{1}, Staleness: []int{2}, Weights: []float64{0.5773502691896258}, Clock: 284}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.runner(t)
			p, err := r.Plan(tc.round, tc.eligible)
			if err != nil {
				t.Fatal(err)
			}
			if p.Round != tc.round || len(p.Starts) != len(p.Cohort) {
				t.Fatalf("plan round %d with %d starts for %d members", p.Round, len(p.Starts), len(p.Cohort))
			}
			for _, c := range p.Cohort {
				if tc.eligible != nil && !slices.Contains(tc.eligible, c) {
					t.Errorf("member %d outside eligible %v", c, tc.eligible)
				}
			}
			if r.Async() == nil {
				want := tc.want.Cohort
				if want == nil {
					want = r.Participants(tc.round)
				}
				if !reflect.DeepEqual(p.Cohort, want) {
					t.Errorf("cohort %v, want %v", p.Cohort, want)
				}
				for i, g := range p.Starts {
					if g != p.Starts[0] || g == nil || g.Params[0] != float64(tc.round) {
						t.Fatalf("start %d = %p, want round %d's one shared global %p", i, g, tc.round, p.Starts[0])
					}
				}
				if p.Weights != nil || p.Staleness != nil || p.Clock != 0 {
					t.Errorf("synchronous plan carries flush facts: %+v", p)
				}
				return
			}
			got := Plan{Cohort: p.Cohort, Staleness: p.Staleness, Weights: p.Weights, Clock: p.Clock}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("flush plan %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestPlanRefFollowsCodec pins the one delta-reference rule: a member's ref is
// its start's params exactly when the codec delta-codes params.
func TestPlanRefFollowsCodec(t *testing.T) {
	for c := comm.Codec(0); c.Valid(); c++ {
		r, err := NewRunner(&globalToy{toyHooks{name: "Toy"}}, Config{Env: &fl.Env{Cfg: fl.EnvConfig{NumClients: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetCodec(c); err != nil {
			t.Fatal(err)
		}
		p, err := r.Plan(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		delta := c.ParamsSection(true) == comm.SectionDeltaF32
		if ref := p.Ref(1); (ref != nil) != delta || (delta && &ref[0] != &p.Starts[1].Params[0]) {
			t.Errorf("codec %s: ref %v, start params %v", c, ref, p.Starts[1].Params)
		}
	}
}
