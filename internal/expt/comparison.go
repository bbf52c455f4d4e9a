package expt

import (
	"fmt"
)

// RunFig5 reproduces Fig. 5: final S_acc and C_acc of all seven algorithms
// under four non-IID settings per task, homogeneous client models.
func RunFig5(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	return runComparison("fig5",
		"Accuracy under non-IID settings, homogeneous models (all algorithms)",
		AllAlgos, sc, seed, spec, false, false)
}

// RunFig7 reproduces Fig. 7: the same comparison restricted to the methods
// that support heterogeneous client models (ResNet11/20/29 fleet,
// ResNet56 server).
func RunFig7(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	return runComparison("fig7",
		"Accuracy under non-IID settings, heterogeneous models (FedPKD, FedMD, DS-FL, FedET)",
		HeteroAlgos, sc, seed, spec, true, false)
}

// runComparison runs an algorithm set over the evaluation grid.
func runComparison(id, title string, algos []string, sc Scale, seed uint64, spec RunSpec, hetero, highOnly bool) (*Result, error) {
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"dataset", "setting", "algorithm", "S_acc", "C_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, highOnly) {
			for _, algo := range algos {
				hist, err := RunOne(algo, task, setting, sc, seed, hetero, spec)
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, algo, pct(hist.FinalServerAcc()), pct(hist.FinalClientAcc()))
			}
		}
	}
	return res, nil
}

// RunFig6 reproduces Fig. 6: accuracy-vs-round curves for all algorithms in
// the highly non-IID settings. The per-round traces land in Result.Series;
// the table reports the final values.
func RunFig6(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:     "fig6",
		Title:  "Accuracy vs communication round, highly non-IID settings",
		Header: []string{"dataset", "setting", "algorithm", "final_S_acc", "final_C_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, algo := range AllAlgos {
				hist, err := RunOne(algo, task, setting, sc, seed, false, spec)
				if err != nil {
					return nil, err
				}
				key := fmt.Sprintf("%s/%s/%s", task, setting.Label, algo)
				sAcc := make([]float64, hist.Len())
				cAcc := make([]float64, hist.Len())
				for i, r := range hist.Rounds {
					sAcc[i] = r.ServerAcc
					cAcc[i] = r.ClientAcc
				}
				res.AddSeries(key+"/S_acc", sAcc)
				res.AddSeries(key+"/C_acc", cAcc)
				res.AddRow(string(task), setting.Label, algo, pct(hist.FinalServerAcc()), pct(hist.FinalClientAcc()))
			}
		}
	}
	return res, nil
}

// RunTable1 reproduces Table I: communication overhead (MB) to reach the
// target accuracy in the weakly non-IID settings. Targets scale with the
// synthetic tasks' attainable bands (paper: 60% C10 / 25% C100 on real
// CIFAR).
func RunTable1(sc Scale, seed uint64, spec RunSpec, targetC10, targetC100 float64) (*Result, error) {
	res := &Result{
		ID: "table1",
		Title: fmt.Sprintf("Communication overhead (MB) to reach target accuracy (C10: %.0f%%, C100: %.0f%%), weakly non-IID",
			targetC10*100, targetC100*100),
		Header: []string{"dataset", "setting", "algorithm", "MB_to_C_acc", "MB_to_S_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		target := targetC10
		if task == TaskC100 {
			target = targetC100
		}
		for _, setting := range weaklyNonIID(task, sc) {
			for _, algo := range AllAlgos {
				hist, err := RunOne(algo, task, setting, sc, seed, false, spec)
				if err != nil {
					return nil, err
				}
				cCell, sCell := "N/A", "N/A"
				if hist.FinalClientAcc() >= 0 {
					if v, ok := hist.MBToClientAcc(target); ok {
						cCell = mb(v)
					} else {
						cCell = "not reached"
					}
				}
				if hist.FinalServerAcc() >= 0 {
					if v, ok := hist.MBToServerAcc(target); ok {
						sCell = mb(v)
					} else {
						sCell = "not reached"
					}
				}
				res.AddRow(string(task), setting.Label, algo, cCell, sCell)
			}
		}
	}
	return res, nil
}

// weaklyNonIID returns the k-high and α=0.5 settings of the grid.
func weaklyNonIID(task Task, sc Scale) []Setting {
	var out []Setting
	high := map[string]bool{"k=3": true, "k=30": true, "α=0.1": true}
	for _, s := range SettingsFor(task, sc, false) {
		if !high[s.Label] {
			out = append(out, s)
		}
	}
	return out
}
