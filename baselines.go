package fedpkd

import (
	"fedpkd/internal/baselines"
)

// Baseline configuration types, aliased for the public surface.
type (
	// CommonConfig holds the knobs every baseline shares.
	CommonConfig = baselines.CommonConfig
	// FedAvgConfig parameterizes FedAvg.
	FedAvgConfig = baselines.FedAvgConfig
	// FedMDConfig parameterizes FedMD.
	FedMDConfig = baselines.FedMDConfig
)

// NewFedAvg builds a FedAvg run (Eq. 1 weight averaging).
func NewFedAvg(cfg FedAvgConfig) (Algorithm, error) { return baselines.NewFedAvg(cfg) }

// NewFedMD builds a FedMD run (logit-consensus distillation, no server
// model).
func NewFedMD(cfg FedMDConfig) (Algorithm, error) { return baselines.NewFedMD(cfg) }
