package expt

import (
	"strconv"
	"time"

	"fedpkd/internal/core"
	"fedpkd/internal/distrib"
	"fedpkd/internal/faults"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// Harness-wide failure model for the failures experiment, threaded from
// fedbench's -chaos / -client-timeout / -min-quorum flags.
var failurePolicy struct {
	plan    *faults.Plan
	timeout time.Duration
	quorum  int
}

// SetFailureModel overrides the failures experiment's defaults: a non-nil
// plan replaces the built-in crash sweep with a baseline-vs-plan comparison,
// a positive timeout replaces the default straggler deadline, and quorum > 0
// makes rounds below it abort.
func SetFailureModel(plan *faults.Plan, timeout time.Duration, quorum int) {
	failurePolicy.plan = plan
	failurePolicy.timeout = timeout
	failurePolicy.quorum = quorum
}

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
func RunFailures(sc Scale, seed uint64) (*Result, error) {
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
	if failurePolicy.plan != nil {
		plans = []*faults.Plan{nil, failurePolicy.plan}
	}
	timeout := time.Minute
	if failurePolicy.timeout > 0 {
		timeout = failurePolicy.timeout
	}
	task := TaskC10
	setting := Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}}
	for _, plan := range plans {
		env, err := NewEnv(task, setting, sc, seed)
		if err != nil {
			return nil, err
		}
		pkd, err := core.New(core.Config{
			Env:                 env,
			ClientPrivateEpochs: sc.PKDPrivateEpochs,
			ClientPublicEpochs:  sc.PKDPublicEpochs,
			ServerEpochs:        sc.PKDServerEpochs,
			Seed:                seed,
		})
		if err != nil {
			return nil, err
		}
		runner, err := engine.Of(pkd)
		if err != nil {
			return nil, err
		}
		if err := applyCodecPolicy(runner); err != nil {
			return nil, err
		}
		hist, err := distrib.Run(pkd, sc.Rounds, distrib.Options{
			Mode:          distrib.ModeBus,
			ClientTimeout: timeout,
			MinQuorum:     failurePolicy.quorum,
			Faults:        plan,
			Topology:      distrib.Topology{Shards: treeShards},
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
