package expt

import (
	"fedpkd/internal/core"
	"fedpkd/internal/models"
)

// variant is one FedPKD configuration of a sweep: its table label (text, or
// a number the sweep's column renders) and the change it makes to the
// paper's defaults.
type variant struct {
	label  any
	mutate func(*core.Config)
}

// fedPKDSweep runs FedPKD once per variant on every highly non-IID setting
// of both tasks, one (dataset, setting, <col>, S_acc) row per run.
func fedPKDSweep(id, title string, col Col, sc Scale, seed uint64, variants []variant) (*Result, error) {
	res := &Result{ID: id, Title: title, Cols: []Col{{"dataset", Text}, {"setting", Text}, col, {"S_acc", Acc}}}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			for _, v := range variants {
				env, err := NewEnv(task, setting, sc, seed)
				if err != nil {
					return nil, err
				}
				cfg := fedPKDConfig(env, sc, seed, models.HomogeneousFleet(env.Cfg.NumClients))
				v.mutate(&cfg)
				f, err := core.New(cfg)
				if err != nil {
					return nil, err
				}
				hist, err := f.Run(sc.Rounds)
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, v.label, hist.FinalServerAcc())
			}
		}
	}
	return decided(res), nil
}

// RunFig8 reproduces the ablation Fig. 8: FedPKD vs FedPKD without
// prototypes ("w/o Pro") vs FedPKD without data filtering ("w/o D.F."),
// highly non-IID settings.
func RunFig8(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	return fedPKDSweep("fig8", "Ablations under highly non-IID settings", Col{"variant", Text}, sc, seed, []variant{
		{"FedPKD", func(*core.Config) {}},
		{"w/o Pro", func(c *core.Config) { c.DisablePrototypes = true }},
		{"w/o D.F.", func(c *core.Config) { c.DisableFiltering = true }},
	})
}

// RunFig9 reproduces Fig. 9: server accuracy as the select ratio θ varies,
// highly non-IID settings.
func RunFig9(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	var vs []variant
	for _, theta := range []float64{0.3, 0.5, 0.7, 1.0} {
		vs = append(vs, variant{theta, func(c *core.Config) { c.SelectRatio = theta }})
	}
	return fedPKDSweep("fig9", "Server accuracy vs select ratio θ, highly non-IID", Col{"theta", Pct0}, sc, seed, vs)
}

// RunFig10 reproduces Fig. 10: server accuracy as the loss mix δ varies,
// highly non-IID settings.
func RunFig10(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	var vs []variant
	for _, delta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		vs = append(vs, variant{delta, func(c *core.Config) { c.Delta = delta }})
	}
	return fedPKDSweep("fig10", "Server accuracy vs loss mix δ, highly non-IID", Col{"delta", Dec1}, sc, seed, vs)
}

// RunAblationAggregation is an extra design-choice ablation (DESIGN.md §1):
// variance-weighted vs plain-mean logit aggregation inside FedPKD.
func RunAblationAggregation(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	var vs []variant
	for _, agg := range []core.Aggregation{core.AggregationVariance, core.AggregationMean} {
		vs = append(vs, variant{string(agg), func(c *core.Config) { c.Aggregation = agg }})
	}
	return fedPKDSweep("ablation-aggregation", "FedPKD logit aggregation: variance-weighted vs mean, highly non-IID",
		Col{"aggregation", Text}, sc, seed, vs)
}

// RunAblationFilterSignal is an extra design-choice ablation (DESIGN.md §1):
// Algorithm 1's prototype-distance ranking vs a logit-confidence ranking.
func RunAblationFilterSignal(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	var vs []variant
	for _, sig := range []core.FilterSignal{core.FilterByPrototype, core.FilterByConfidence} {
		vs = append(vs, variant{string(sig), func(c *core.Config) { c.FilterSignal = sig }})
	}
	return fedPKDSweep("ablation-filter-signal", "FedPKD filter signal: prototype distance vs logit confidence, highly non-IID",
		Col{"signal", Text}, sc, seed, vs)
}
