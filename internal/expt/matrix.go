package expt

import (
	"fmt"
	"os"

	"fedpkd/internal/baselines"
	"fedpkd/internal/core"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/models"
)

// Algorithm names used throughout the harness.
const (
	AlgoFedPKD   = "FedPKD"
	AlgoFedMD    = "FedMD"
	AlgoDSFL     = "DS-FL"
	AlgoFedET    = "FedET"
	AlgoFedDF    = "FedDF"
	AlgoFedAvg   = "FedAvg"
	AlgoFedProx  = "FedProx"
	AlgoFedProto = "FedProto"
	AlgoKD       = "KD"
)

// AllAlgos is the Fig. 5 / Table I comparison set.
var AllAlgos = []string{AlgoFedPKD, AlgoFedMD, AlgoDSFL, AlgoFedET, AlgoFedDF, AlgoFedAvg, AlgoFedProx}

// HeteroAlgos is the Fig. 7 comparison set: methods that support
// heterogeneous client models.
var HeteroAlgos = []string{AlgoFedPKD, AlgoFedMD, AlgoDSFL, AlgoFedET}

// Algorithms lists every name BuildAlgorithm accepts.
func Algorithms() []string {
	return []string{AlgoFedPKD, AlgoFedMD, AlgoDSFL, AlgoFedET, AlgoFedDF, AlgoFedAvg, AlgoFedProx, AlgoFedProto, AlgoKD}
}

// AlgoOptions carries the per-algorithm knobs that are not part of the
// shared schedule. The zero value keeps every paper default.
type AlgoOptions struct {
	// Theta overrides FedPKD's filtering select ratio θ when positive.
	Theta float64
	// Delta overrides FedPKD's server loss mix δ when positive.
	Delta float64
}

// BuildAlgorithm constructs a named algorithm on an environment with the
// scale's schedule and the paper-default options. hetero selects the
// heterogeneous ResNet11/20/29 fleet for the methods that support it.
func BuildAlgorithm(name string, env *fl.Env, sc Scale, seed uint64, hetero bool) (fl.Algorithm, error) {
	return BuildAlgorithmOpts(name, env, sc, seed, hetero, AlgoOptions{})
}

// BuildAlgorithmOpts is BuildAlgorithm with per-algorithm option overrides.
// Every returned algorithm runs on the shared engine driver, so it can be
// handed to internal/distrib as-is.
func BuildAlgorithmOpts(name string, env *fl.Env, sc Scale, seed uint64, hetero bool, opts AlgoOptions) (fl.Algorithm, error) {
	common := baselines.CommonConfig{Env: env, Seed: seed}
	n := env.Cfg.NumClients
	clientArchs := models.HomogeneousFleet(n)
	if hetero {
		clientArchs = models.HeterogeneousFleet(n)
	}
	switch name {
	case AlgoFedPKD:
		return core.New(core.Config{
			Env:                 env,
			ClientArchs:         clientArchs,
			ClientPrivateEpochs: sc.PKDPrivateEpochs,
			ClientPublicEpochs:  sc.PKDPublicEpochs,
			ServerEpochs:        sc.PKDServerEpochs,
			SelectRatio:         opts.Theta,
			Delta:               opts.Delta,
			Seed:                seed,
		})
	case AlgoFedMD:
		return baselines.NewFedMD(baselines.FedMDConfig{
			Common: common, LocalEpochs: sc.LocalEpochs, DistillEpochs: sc.DistillEpochs, Archs: clientArchs,
		})
	case AlgoDSFL:
		return baselines.NewDSFL(baselines.FedMDConfig{
			Common: common, LocalEpochs: sc.LocalEpochs, DistillEpochs: sc.DistillEpochs, Archs: clientArchs,
		})
	case AlgoFedET:
		return baselines.NewFedET(baselines.FedETConfig{
			Common: common, LocalEpochs: sc.LocalEpochs, ServerEpochs: sc.FedETServerEpochs, ClientArchs: clientArchs,
		})
	case AlgoFedDF:
		if hetero {
			return nil, fmt.Errorf("expt: FedDF does not support heterogeneous models")
		}
		return baselines.NewFedDF(baselines.FedDFConfig{
			Common: common, LocalEpochs: sc.FedDFLocalEpochs, ServerEpochs: sc.FedDFServerEpochs,
		})
	case AlgoFedAvg:
		if hetero {
			return nil, fmt.Errorf("expt: FedAvg does not support heterogeneous models")
		}
		return baselines.NewFedAvg(baselines.FedAvgConfig{Common: common, LocalEpochs: sc.LocalEpochs})
	case AlgoFedProx:
		if hetero {
			return nil, fmt.Errorf("expt: FedProx does not support heterogeneous models")
		}
		return baselines.NewFedProx(baselines.FedAvgConfig{Common: common, LocalEpochs: sc.LocalEpochs})
	case AlgoFedProto:
		return baselines.NewFedProto(baselines.FedProtoConfig{
			Common: common, LocalEpochs: sc.LocalEpochs, Archs: clientArchs,
		})
	case AlgoKD:
		return baselines.NewVanillaKD(baselines.VanillaKDConfig{
			Common: common, LocalEpochs: sc.LocalEpochs, ServerEpochs: sc.VanillaServerEpoch,
		})
	default:
		return nil, fmt.Errorf("expt: unknown algorithm %q", name)
	}
}

// newRun materializes an environment, builds one algorithm on it and applies
// the spec: a configured run, not yet started.
func newRun(name string, task Task, setting Setting, sc Scale, seed uint64, hetero bool, spec RunSpec) (*engine.Runner, error) {
	env, err := NewEnv(task, setting, sc, seed)
	if err != nil {
		return nil, fmt.Errorf("expt: env for %s/%s: %w", task, setting.Label, err)
	}
	algo, err := BuildAlgorithm(name, env, sc, seed, hetero)
	if err != nil {
		return nil, err
	}
	warnings, err := spec.Apply(algo)
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "expt:", w)
	}
	if err != nil {
		return nil, err
	}
	return engine.Of(algo)
}

// RunOne runs one algorithm over the scale's round budget under the spec's
// codec, async mode, availability trace and checkpoint policy (see
// RunSpec.forRun for how a sweep's checkpoint root maps onto this run).
func RunOne(name string, task Task, setting Setting, sc Scale, seed uint64, hetero bool, spec RunSpec) (*fl.History, error) {
	runner, err := newRun(name, task, setting, sc, seed, hetero, spec.forRun(name, task, setting, seed, hetero))
	if err != nil {
		return nil, err
	}
	hist, err := runner.RunUntil(sc.Rounds)
	if err != nil {
		return nil, fmt.Errorf("expt: run %s on %s/%s: %w", name, task, setting.Label, err)
	}
	return hist, nil
}
