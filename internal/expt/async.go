package expt

import (
	"fmt"

	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// asyncSchedule is the straggler model both legs of the async experiment are
// measured under: base turnaround uniform in [50,150] ticks, with 30% of
// clients straggling at 4x. The draw is conditioned on the n-client fleet
// actually containing a straggler — a "straggler model" whose per-client
// draws all came up fast measures nothing (and at the reduced fleet sizes
// that happens for a third of seeds) — by deterministically re-deriving the
// schedule seed until one exists. Still a pure function of (seed, n).
func asyncSchedule(seed uint64, n int) engine.ArrivalSchedule {
	for off := uint64(0); ; off++ {
		sched := engine.ArrivalSchedule{
			Seed: seed + off<<32, MinTicks: 50, MaxTicks: 150,
			StragglerFrac: 0.3, StragglerFactor: 4,
		}
		for c := 0; c < n; c++ {
			if sched.IsStraggler(c) {
				return sched
			}
		}
	}
}

// RunAsync is the barrier-free execution experiment: FedPKD at the same seed
// run twice under the same straggler model — once synchronously (every round
// barriers on the slowest client, so the round costs the fleet-wide worst
// delay) and once asynchronously (the server flushes a buffer of the K
// earliest arrivals, staleness-damped, so stragglers never gate progress).
// The async leg runs ceil(T·n/K) flushes, so both legs consume the same
// number of client updates — the FedBuff accounting. At equal client work
// the async leg aggregates more often (K < n contributors per flush), so its
// server sees more distillation steps; its accuracy may exceed the sync
// leg's, never trail it materially. The experiment is self-checking:
//
//   - Fidelity: over a small seed ensemble, the async leg's mean final
//     server accuracy must not trail the sync leg's by more than 1pp —
//     staleness damping (1/(1+s)^α) must neutralize the stale contributions
//     the buffer admits. One run cannot resolve 1pp at the reduced scales,
//     hence the ensemble mean.
//   - Latency: the async leg's simulated wall-clock (the logical-clock time
//     of its last flush) must beat the sync leg's barrier wall-clock (sum
//     over rounds of the slowest client's delay) at the base seed.
func RunAsync(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:     "async",
		Title:  "FedPKD sync barrier vs async buffered flushes under a 30% straggler model, α=0.5",
		Header: []string{"mode", "rounds", "S_acc", "C_acc", "mean_S_acc", "r@90%", "MB", "sim_clock", "speedup"},
	}
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}
	n := sc.NumClients
	k := halfFleet(n)
	flushes := (sc.Rounds*n + k - 1) / k

	// fidelitySeeds sizes the ensemble the accuracy budget is checked on.
	const fidelitySeeds = 5

	// The legs differ in mode by construction; only the codec is shared.
	newLeg := func(s uint64, async bool) (*engine.Runner, error) {
		leg := RunSpec{Codec: spec.Codec}
		if async {
			leg.Async = &engine.AsyncOptions{
				BufferSize: k, StalenessAlpha: 0.5, Schedule: asyncSchedule(s, n),
			}
		}
		return newRun(AlgoFedPKD, TaskC10, setting, sc, s, false, leg)
	}

	var histS, histA *fl.History
	var meanS, meanA float64
	for s := uint64(0); s < fidelitySeeds; s++ {
		pkdS, err := newLeg(seed+s, false)
		if err != nil {
			return nil, err
		}
		hS, err := pkdS.Run(sc.Rounds)
		if err != nil {
			return nil, err
		}
		pkdA, err := newLeg(seed+s, true)
		if err != nil {
			return nil, err
		}
		hA, err := pkdA.Run(flushes)
		if err != nil {
			return nil, err
		}
		if len(hA.Flushes) != flushes {
			return nil, fmt.Errorf("expt: async leg recorded %d flushes, ran %d", len(hA.Flushes), flushes)
		}
		meanS += hS.FinalServerAcc()
		meanA += hA.FinalServerAcc()
		if s == 0 {
			histS, histA = hS, hA
		}
	}
	meanS /= fidelitySeeds
	meanA /= fidelitySeeds

	// The sync leg's simulated wall-clock is analytic: a barrier round ends
	// when the slowest client of that round delivers.
	sched := asyncSchedule(seed, n)
	var syncClock uint64
	for t := 0; t < sc.Rounds; t++ {
		var worst uint64
		for c := 0; c < n; c++ {
			if d := sched.Delay(c, t, 0); d > worst {
				worst = d
			}
		}
		syncClock += worst
	}
	asyncClock := histA.FinalClock()

	// Contract 1: async must not trade the straggler wait for accuracy.
	if meanS-meanA > 0.01 {
		return nil, fmt.Errorf("expt: async mean final server accuracy %.2f%% trails sync %.2f%% past the 1pp budget (%d seeds)",
			meanA*100, meanS*100, fidelitySeeds)
	}
	// Contract 2: dodging the barrier must actually cut simulated wall-clock.
	if asyncClock == 0 || asyncClock >= syncClock {
		return nil, fmt.Errorf("expt: async simulated wall-clock %d ticks did not beat the sync barrier's %d",
			asyncClock, syncClock)
	}

	// Rounds-to-accuracy at a common target both legs can reach: 90% of the
	// sync leg's final accuracy.
	target := 0.9 * histS.FinalServerAcc()
	atTarget := func(h *fl.History) string {
		if r, ok := h.RoundsToServerAcc(target); ok {
			return fmt.Sprintf("%d", r+1)
		}
		return "not reached"
	}

	speedup := float64(syncClock) / float64(asyncClock)
	res.AddRow("sync", fmt.Sprintf("%d", sc.Rounds),
		pct(histS.FinalServerAcc()), pct(histS.FinalClientAcc()), pct(meanS),
		atTarget(histS), mb(histS.TotalMB()),
		fmt.Sprintf("%d", syncClock), "1.00x")
	res.AddRow("async", fmt.Sprintf("%d", flushes),
		pct(histA.FinalServerAcc()), pct(histA.FinalClientAcc()), pct(meanA),
		atTarget(histA), mb(histA.TotalMB()),
		fmt.Sprintf("%d", asyncClock), fmt.Sprintf("%.2fx", speedup))

	sAcc := make([]float64, 0, histS.Len())
	for _, rm := range histS.Rounds {
		sAcc = append(sAcc, rm.ServerAcc)
	}
	aAcc := make([]float64, 0, histA.Len())
	for _, rm := range histA.Rounds {
		aAcc = append(aAcc, rm.ServerAcc)
	}
	res.AddSeries("sync_S_acc", sAcc)
	res.AddSeries("async_S_acc", aAcc)
	return res, nil
}
