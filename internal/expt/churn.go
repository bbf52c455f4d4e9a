package expt

import (
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// churnTrace derives the diurnal trace both churn legs are compared under: a
// period that fits inside the scale's round budget (so churn actually
// happens within the run), duty cycles in [0.5, 0.9]. The draw is
// conditioned — in the asyncSchedule style — on the trace being usable over
// the run: every round keeps at least one client online (an empty cohort
// measures nothing and the engine has nobody to aggregate), and at least one
// round loses somebody (a trace whose draws all came up always-on measures
// nothing either). Still a pure function of (seed, n, rounds).
func churnTrace(seed uint64, n, rounds int) *engine.AvailabilityTrace {
	period := rounds
	if period > 8 {
		period = 8
	}
	if period < 2 {
		period = 2
	}
	for off := uint64(0); ; off++ {
		tr := &engine.AvailabilityTrace{Seed: seed + off<<32, Period: period, MinDuty: 0.5, MaxDuty: 0.9}
		sawChurn := false
		usable := true
		for t := 0; t < rounds; t++ {
			online := 0
			for c := 0; c < n; c++ {
				if tr.Online(c, t) {
					online++
				}
			}
			if online == 0 {
				usable = false
				break
			}
			if online < n {
				sawChurn = true
			}
		}
		if usable && sawChurn {
			return tr
		}
	}
}

// RunChurn is the live-cohort-churn experiment: FedPKD at the same seed run
// twice — once with the legacy fixed full cohort, and once under a seeded
// diurnal availability trace where each round's cohort is only the clients
// currently online (duty cycles 0.5–0.9 of a period fitted to the round
// budget). Two contracts ride on the table as claims:
//
//   - Replay: the churn leg runs twice at the base seed and the two
//     histories must be byte-identical under JSON marshaling — churn is a
//     deterministic trace, not noise, which is what makes `serve` mode's
//     availability runs reproducible and debuggable.
//   - Fidelity: over a small seed ensemble, the churn leg's mean final
//     server accuracy must not trail the fixed leg's by more than 5pp.
//     Knowledge distillation aggregates whoever is online; losing 10–50% of
//     the fleet per round must degrade gracefully, not collapse.
func RunChurn(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:    "churn",
		Title: "FedPKD fixed full cohort vs diurnal availability churn (duty 0.5-0.9)",
		Cols: []Col{{"mode", Text}, {"rounds", Count}, {"S_acc", Acc}, {"C_acc", Acc}, {"mean_S_acc", Acc},
			{"MB", MB}, {"min_cohort", Count}, {"mean_cohort", Dec1}},
	}
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}
	n := sc.NumClients

	// The legs differ in cohort by construction; only the codec is shared.
	newLeg := func(s uint64, churn bool) (*engine.Runner, error) {
		leg := RunSpec{Codec: spec.Codec}
		if churn {
			leg.Availability = churnTrace(s, n, sc.Rounds)
		}
		return newRun(AlgoFedPKD, TaskC10, setting, sc, s, false, leg)
	}
	leg := func(churn bool) func(s uint64) (*fl.History, error) {
		return func(s uint64) (*fl.History, error) {
			r, err := newLeg(s, churn)
			if err != nil {
				return nil, err
			}
			return r.Run(sc.Rounds)
		}
	}
	mean, base, err := seedEnsemble(seed, leg(false), leg(true))
	if err != nil {
		return nil, err
	}
	meanF, meanC, histF, histC := mean[0], mean[1], base[0], base[1]

	// Same seed + same trace ⇒ byte-identical history.
	replay, err := newLeg(seed, true)
	if err != nil {
		return nil, err
	}
	hR, err := replay.Run(sc.Rounds)
	if err != nil {
		return nil, err
	}
	same, err := sameHistory(histC, hR)
	if err != nil {
		return nil, err
	}
	// Losing part of the fleet each round must degrade gracefully, not
	// collapse.
	res.Claims = append(res.Claims, churnReplay(same), churnFidelity(meanF, meanC))

	// Cohort-size trajectory of the base-seed trace, straight from the model
	// (the in-process cohort is exactly the online set).
	tr := churnTrace(seed, n, sc.Rounds)
	cohorts := make([]float64, sc.Rounds)
	minCohort, sumCohort := n, 0
	for t := 0; t < sc.Rounds; t++ {
		online := 0
		for c := 0; c < n; c++ {
			if tr.Online(c, t) {
				online++
			}
		}
		cohorts[t] = float64(online)
		sumCohort += online
		if online < minCohort {
			minCohort = online
		}
	}

	res.AddRow("fixed", sc.Rounds,
		histF.FinalServerAcc(), histF.FinalClientAcc(), meanF,
		histF.TotalMB(), n, float64(n))
	res.AddRow("diurnal", sc.Rounds,
		histC.FinalServerAcc(), histC.FinalClientAcc(), meanC,
		histC.TotalMB(), minCohort, float64(sumCohort)/float64(sc.Rounds))

	res.AddSeries("fixed_S_acc", serverAccs(histF))
	res.AddSeries("diurnal_S_acc", serverAccs(histC))
	res.AddSeries("diurnal_cohort", cohorts)
	return res, nil
}
