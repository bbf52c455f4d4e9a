package fedpkd

import (
	"fedpkd/internal/expt"
)

// Experiment-harness types, aliased for the public surface.
type (
	// ExperimentResult is one regenerated table/figure.
	ExperimentResult = expt.Result
	// ExperimentScale bundles the compute-budget knobs of a run.
	ExperimentScale = expt.Scale
	// AlgoOptions carries per-algorithm overrides for BuildAlgorithm.
	AlgoOptions = expt.AlgoOptions
)

// Predefined experiment scales.
var (
	// ScaleQuick finishes each experiment in seconds (tests, demos).
	ScaleQuick = expt.Quick
	// ScaleStd is the reporting scale used by EXPERIMENTS.md.
	ScaleStd = expt.Std
	// ScaleFull restores the paper's schedule (hours per configuration).
	ScaleFull = expt.Full
)

// Experiments returns the ids of every reproducible table and figure.
func Experiments() []string { return expt.ExperimentIDs() }

// RunExperiment regenerates one of the paper's tables or figures by id
// ("fig1".."fig10", "table1", "ablation-*").
func RunExperiment(id string, sc ExperimentScale, seed uint64) (*ExperimentResult, error) {
	return expt.Run(id, sc, seed)
}

// Algorithms lists every name BuildAlgorithm accepts.
func Algorithms() []string { return expt.Algorithms() }

// BuildAlgorithm constructs a named algorithm on an environment with the
// scale's schedule. Every algorithm it returns runs on the shared round
// engine, so the result works with Run, SetRecorder, and
// RunDistributed alike.
func BuildAlgorithm(name string, env *Env, sc ExperimentScale, seed uint64, hetero bool, opts AlgoOptions) (Algorithm, error) {
	return expt.BuildAlgorithmOpts(name, env, sc, seed, hetero, opts)
}
