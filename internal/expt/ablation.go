package expt

import (
	"fmt"

	"fedpkd/internal/core"
	"fedpkd/internal/models"
)

// runFedPKDVariant runs FedPKD with a config mutation under a task/setting.
func runFedPKDVariant(task Task, setting Setting, sc Scale, seed uint64, mutate func(*core.Config)) (float64, float64, error) {
	env, err := NewEnv(task, setting, sc, seed)
	if err != nil {
		return 0, 0, err
	}
	cfg := core.Config{
		Env:                 env,
		ClientArchs:         models.HomogeneousFleet(env.Cfg.NumClients),
		ClientPrivateEpochs: sc.PKDPrivateEpochs,
		ClientPublicEpochs:  sc.PKDPublicEpochs,
		ServerEpochs:        sc.PKDServerEpochs,
		Seed:                seed,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	hist, err := f.Run(sc.Rounds)
	if err != nil {
		return 0, 0, err
	}
	return hist.FinalServerAcc(), hist.FinalClientAcc(), nil
}

// RunFig8 reproduces the ablation Fig. 8: FedPKD vs FedPKD without
// prototypes ("w/o Pro") vs FedPKD without data filtering ("w/o D.F."),
// highly non-IID settings.
func RunFig8(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:     "fig8",
		Title:  "Ablations under highly non-IID settings",
		Header: []string{"dataset", "setting", "variant", "S_acc"},
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"FedPKD", nil},
		{"w/o Pro", func(c *core.Config) { c.DisablePrototypes = true }},
		{"w/o D.F.", func(c *core.Config) { c.DisableFiltering = true }},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, v := range variants {
				sAcc, _, err := runFedPKDVariant(task, setting, sc, seed, v.mutate)
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, v.name, pct(sAcc))
			}
		}
	}
	return res, nil
}

// RunFig9 reproduces Fig. 9: server accuracy as the select ratio θ varies,
// highly non-IID settings.
func RunFig9(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:     "fig9",
		Title:  "Server accuracy vs select ratio θ, highly non-IID",
		Header: []string{"dataset", "setting", "theta", "S_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, theta := range []float64{0.3, 0.5, 0.7, 1.0} {
				theta := theta
				sAcc, _, err := runFedPKDVariant(task, setting, sc, seed, func(c *core.Config) {
					c.SelectRatio = theta
				})
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, fmt.Sprintf("%.0f%%", theta*100), pct(sAcc))
			}
		}
	}
	return res, nil
}

// RunFig10 reproduces Fig. 10: server accuracy as the loss mix δ varies,
// highly non-IID settings.
func RunFig10(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:     "fig10",
		Title:  "Server accuracy vs loss mix δ, highly non-IID",
		Header: []string{"dataset", "setting", "delta", "S_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, delta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
				delta := delta
				sAcc, _, err := runFedPKDVariant(task, setting, sc, seed, func(c *core.Config) {
					c.Delta = delta
				})
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, fmt.Sprintf("%.1f", delta), pct(sAcc))
			}
		}
	}
	return res, nil
}

// RunAblationAggregation is an extra design-choice ablation (DESIGN.md §1):
// variance-weighted vs plain-mean logit aggregation inside FedPKD.
func RunAblationAggregation(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:     "ablation-aggregation",
		Title:  "FedPKD logit aggregation: variance-weighted vs mean, highly non-IID",
		Header: []string{"dataset", "setting", "aggregation", "S_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, agg := range []core.Aggregation{core.AggregationVariance, core.AggregationMean} {
				agg := agg
				sAcc, _, err := runFedPKDVariant(task, setting, sc, seed, func(c *core.Config) {
					c.Aggregation = agg
				})
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, string(agg), pct(sAcc))
			}
		}
	}
	return res, nil
}

// RunAblationFilterSignal is an extra design-choice ablation (DESIGN.md §1):
// Algorithm 1's prototype-distance ranking vs a logit-confidence ranking.
func RunAblationFilterSignal(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:     "ablation-filter-signal",
		Title:  "FedPKD filter signal: prototype distance vs logit confidence, highly non-IID",
		Header: []string{"dataset", "setting", "signal", "S_acc"},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, sig := range []core.FilterSignal{core.FilterByPrototype, core.FilterByConfidence} {
				sig := sig
				sAcc, _, err := runFedPKDVariant(task, setting, sc, seed, func(c *core.Config) {
					c.FilterSignal = sig
				})
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, string(sig), pct(sAcc))
			}
		}
	}
	return res, nil
}
