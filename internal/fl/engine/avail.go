package engine

import (
	"fmt"
	"strconv"
	"strings"

	"fedpkd/internal/stats"
)

// This file is the seeded availability model behind live cohort churn: which
// clients are online at each round. Real federated populations connect and
// disconnect on diurnal cycles — devices charge overnight, users commute —
// so the trace is a periodic on/off window per client, with the phase and
// the duty cycle (the online fraction) drawn once per client from the seed.
// Every draw is a pure function of (Seed, client), in the internal/faults
// style, so churn runs replay deterministically: the same seed and the same
// trace produce the same online set at every round, in-process and over any
// transport.

// Availability-trace salts, disjoint from the async-schedule salts above
// (same stats.Mix stream construction).
const (
	saltAvailPhase uint64 = iota + 201
	saltAvailDuty
)

// AvailabilityTrace is the diurnal connect/disconnect model: client c is
// online at round t iff (t + phase_c) mod Period falls inside its online
// window, whose width is duty_c·Period. phase_c is uniform over the period
// and duty_c uniform in [MinDuty, MaxDuty], both drawn once per client from
// Seed. The nil trace means every client is always online (the legacy fixed
// cohort).
type AvailabilityTrace struct {
	// Seed drives the per-client phase and duty draws.
	Seed uint64
	// Period is the cycle length in rounds (default 24 — one "day" of
	// hourly rounds).
	Period int
	// MinDuty and MaxDuty bound the per-client online fraction (defaults
	// 0.5 and 0.9). MinDuty == MaxDuty pins every client to the same duty.
	MinDuty, MaxDuty float64
}

// WithDefaults fills unset fields with the defaults.
func (a AvailabilityTrace) WithDefaults() AvailabilityTrace {
	if a.Period == 0 {
		a.Period = 24
	}
	if a.MinDuty == 0 {
		a.MinDuty = 0.5
	}
	if a.MaxDuty == 0 {
		a.MaxDuty = 0.9
	}
	return a
}

// Validate rejects inconsistent traces (after defaulting).
func (a AvailabilityTrace) Validate() error {
	a = a.WithDefaults()
	if a.Period < 1 {
		return fmt.Errorf("engine: AvailabilityTrace Period must be >= 1, got %d", a.Period)
	}
	if !(a.MinDuty > 0 && a.MinDuty <= 1) { // NaN fails too
		return fmt.Errorf("engine: AvailabilityTrace MinDuty must be in (0,1], got %v", a.MinDuty)
	}
	if !(a.MaxDuty >= a.MinDuty && a.MaxDuty <= 1) {
		return fmt.Errorf("engine: AvailabilityTrace MaxDuty %v outside [MinDuty=%v, 1]", a.MaxDuty, a.MinDuty)
	}
	return nil
}

// Online reports whether client c is online at round t. Pure: two draws per
// client (phase and duty), independent of rounds, so the whole trace is
// fixed by the seed. A nil trace is always online.
func (a *AvailabilityTrace) Online(c, t int) bool {
	if a == nil {
		return true
	}
	tr := a.WithDefaults()
	period := uint64(tr.Period)
	phase := stats.Split(tr.Seed, stats.Mix(saltAvailPhase, uint64(c)+1)).Uint64() % period
	u := stats.Split(tr.Seed, stats.Mix(saltAvailDuty, uint64(c)+1)).Float64()
	duty := tr.MinDuty + u*(tr.MaxDuty-tr.MinDuty)
	window := uint64(duty*float64(tr.Period) + 0.5)
	if window < 1 {
		window = 1
	}
	if window > period {
		window = period
	}
	return (uint64(t)+phase)%period < window
}

// ParseAvailability parses a CLI trace spec like
//
//	period=24,min=0.5,max=0.9,seed=7
//
// into an AvailabilityTrace. Omitted keys keep the defaults; an omitted seed
// takes defaultSeed (typically the run seed, so replays line up for free).
// An empty spec returns nil: no churn, the legacy fixed cohort.
func ParseAvailability(spec string, defaultSeed uint64) (*AvailabilityTrace, error) {
	if spec == "" {
		return nil, nil
	}
	tr := &AvailabilityTrace{Seed: defaultSeed}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("engine: availability spec %q: want key=value, got %q", spec, kv)
		}
		switch k {
		case "period":
			p, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("engine: availability period %q: %w", v, err)
			}
			tr.Period = p
		case "min":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: availability min %q: %w", v, err)
			}
			tr.MinDuty = f
		case "max":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: availability max %q: %w", v, err)
			}
			tr.MaxDuty = f
		case "seed":
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: availability seed %q: %w", v, err)
			}
			tr.Seed = s
		default:
			return nil, fmt.Errorf("engine: unknown availability key %q (want period, min, max, seed)", k)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// SetAvailability installs a seeded availability trace: subsequent rounds
// (and async flushes) sample their cohort from the clients the trace puts
// online, instead of the full 0..n-1 population. Call before the first round
// — switching traces mid-run would break same-seed replay. Nil restores the
// always-online default. Resume note: like the wire codec, the trace is
// run configuration, not checkpointed state — a resumed run must re-apply
// the same trace (the CLIs re-derive it from the same flags).
func (r *Runner) SetAvailability(tr *AvailabilityTrace) error {
	if tr != nil {
		if err := tr.Validate(); err != nil {
			return err
		}
	}
	r.avail = tr
	return nil
}

// Availability returns the active trace, or nil when every client is always
// online.
func (r *Runner) Availability() *AvailabilityTrace { return r.avail }

// Online returns the clients among the given ids (ascending; nil means the
// whole fleet) that the availability trace puts online at round t — all of
// them when no trace is set. It is the one place "online ∩ eligible" is
// computed: Plan narrows its eligible clients with it, and internal/distrib
// its registry's population.
func (r *Runner) Online(t int, among []int) []int {
	if among == nil {
		among = make([]int, r.cfg.Env.Cfg.NumClients)
		for c := range among {
			among[c] = c
		}
	}
	out := make([]int, 0, len(among))
	for _, c := range among {
		if r.avail.Online(c, t) {
			out = append(out, c)
		}
	}
	return out
}
