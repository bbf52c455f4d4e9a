package expt

import (
	"strconv"
	"time"

	"fedpkd/internal/distrib"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
)

// RunFailures is an extension experiment beyond the paper's grid: the
// distributed dropout curve. FedPKD runs over the real transport under
// deterministic chaos; clients a fault takes out contribute nothing to
// their round, so the curve shows how prototype-distillation accuracy
// degrades as rounds aggregate partial cohorts — and that the
// failure-tolerant runtime never stalls or aborts while doing it.
//
// The default sweep uses crash chaos (rather than message drops) to keep
// the experiment wall-clock scale-free: the shared fault schedule tells the
// server which clients are down, so no round burns its straggler deadline
// waiting for a peer that will never upload.
//
// The spec's Distrib fields override the defaults: a fault plan replaces the
// built-in crash sweep with a baseline-vs-plan comparison, a positive
// ClientTimeout replaces the one-minute straggler deadline, MinQuorum > 0
// makes rounds below it abort, and Topology reduces through a tree.
func RunFailures(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:     "failures",
		Title:  "Distributed FedPKD under deterministic fault injection, α=0.5",
		Header: []string{"dataset", "faults", "S_acc", "C_acc", "partial_rounds", "total_MB"},
	}
	plans := []*faults.Plan{
		nil,
		{Seed: seed, CrashProb: 0.1},
		{Seed: seed, CrashProb: 0.3},
		{Seed: seed, CrashProb: 0.5},
	}
	if spec.Distrib.Faults != nil {
		plans = []*faults.Plan{nil, spec.Distrib.Faults}
	}
	timeout := time.Minute
	if spec.Distrib.ClientTimeout > 0 {
		timeout = spec.Distrib.ClientTimeout
	}
	task := TaskC10
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}
	for _, plan := range plans {
		r, err := newRun(AlgoFedPKD, task, setting, sc, seed, false, RunSpec{Codec: spec.Codec})
		if err != nil {
			return nil, err
		}
		hist, err := distrib.Run(r, sc.Rounds, distrib.Options{
			Mode:          distrib.ModeBus,
			ClientTimeout: timeout,
			MinQuorum:     spec.Distrib.MinQuorum,
			Faults:        plan,
			Topology:      spec.Distrib.Topology,
		})
		if err != nil {
			return nil, err
		}
		res.AddRow(string(task), plan.String(),
			pct(hist.FinalServerAcc()), pct(hist.FinalClientAcc()),
			strconv.Itoa(hist.DegradedCount()), mb(hist.TotalMB()))
	}
	return res, nil
}
