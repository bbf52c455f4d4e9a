package expt

import (
	"fmt"
	"sort"
)

// Runner regenerates one experiment at a scale under a run specification.
// Which RunSpec fields an experiment honours is tabulated in DESIGN.md §7;
// legs an experiment compares by construction override the spec's field.
type Runner func(sc Scale, seed uint64, spec RunSpec) (*Result, error)

// DefaultTargetC10 and DefaultTargetC100 are the Table I accuracy targets,
// scaled to the synthetic tasks' attainable bands (the paper used 60% / 25%
// on real CIFAR).
const (
	DefaultTargetC10  = 0.50
	DefaultTargetC100 = 0.15
)

// Runners returns the registry of experiment ids to runners. Table I uses
// the default targets; use RunTable1 directly for custom targets.
func Runners() map[string]Runner {
	return map[string]Runner{
		"fig1": RunFig1,
		"fig2": RunFig2,
		"fig3": RunFig3,
		"fig5": RunFig5,
		"fig6": RunFig6,
		"fig7": RunFig7,
		"table1": func(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
			return RunTable1(sc, seed, spec, DefaultTargetC10, DefaultTargetC100)
		},
		"fig8":                   RunFig8,
		"fig9":                   RunFig9,
		"fig10":                  RunFig10,
		"ablation-aggregation":   RunAblationAggregation,
		"ablation-filter-signal": RunAblationFilterSignal,
		"ablation-normalization": RunAblationNormalization,
		"extra-fedproto":         RunExtraFedProto,
		"failures":               RunFailures,
		"compression":            RunCompression,
		"async":                  RunAsync,
		"churn":                  RunChurn,
		"hierarchy":              RunHierarchy,
		"treefaults":             RunTreeFaults,
	}
}

// ExperimentIDs returns the registered experiment ids in sorted order.
func ExperimentIDs() []string {
	r := Runners()
	ids := make([]string, 0, len(r))
	for id := range r {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run looks up and executes an experiment by id.
func Run(id string, sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	runner, ok := Runners()[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return runner(sc, seed, spec)
}
