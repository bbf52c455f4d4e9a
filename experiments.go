package fedpkd

import (
	"fedpkd/internal/expt"
)

// Experiment-harness types, aliased for the public surface.
type (
	// ExperimentScale bundles the compute-budget knobs of a run.
	ExperimentScale = expt.Scale
	// AlgoOptions carries per-algorithm overrides for BuildAlgorithm.
	AlgoOptions = expt.AlgoOptions
	// RunSpec is a run's configuration as a plain value: wire codec, async
	// mode, availability trace, checkpoint policy and resume point, recorder,
	// and the distributed runtime's options. The zero value is the default
	// run. See DESIGN.md §3, "Configuring a run".
	RunSpec = expt.RunSpec
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

// Configure installs a RunSpec on a freshly built algorithm, before its
// first round: everything BuildAlgorithm, NewFedPKD, NewFedAvg or NewFedMD
// return accepts one. It is the only way run configuration reaches an
// algorithm, in-process or distributed (hand spec.Distrib to RunDistributed
// or NewService afterwards). When spec.Resume is set the run is restored
// from that checkpoint once configured; the returned warnings name corrupt
// newer checkpoints a directory resume skipped.
func Configure(algo Algorithm, spec RunSpec) (warnings []string, err error) {
	return spec.Apply(algo)
}

// Algorithms lists every name BuildAlgorithm accepts.
func Algorithms() []string { return expt.Algorithms() }

// BuildAlgorithm constructs a named algorithm on an environment with the
// scale's schedule. Every algorithm it returns runs on the shared round
// engine, so the result works with Run, Configure, and RunDistributed
// alike.
func BuildAlgorithm(name string, env *Env, sc ExperimentScale, seed uint64, hetero bool, opts AlgoOptions) (Algorithm, error) {
	return expt.BuildAlgorithmOpts(name, env, sc, seed, hetero, opts)
}
