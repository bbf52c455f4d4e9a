// Package baselines implements the six comparison algorithms of the paper's
// evaluation — FedAvg, FedProx, FedMD, DS-FL, FedDF, and FedET — plus
// FedProto and the plain average-logit KD method of the motivating Fig. 1.
// Every baseline is a full working algorithm on the same substrates FedPKD
// uses (internal/nn, internal/dataset, internal/kd, internal/comm),
// expressed as engine.Hooks and driven by the shared round engine in
// internal/fl/engine.
package baselines

import (
	"fmt"

	"fedpkd/internal/fl/engine"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
)

// CommonConfig holds the knobs every baseline shares. It is the engine's
// shared config: defaults and validation live in engine.Config.FillDefaults,
// the one place the whole repository fills them.
type CommonConfig = engine.Config

// buildFleet constructs one model per client for the given architectures.
func buildFleet(common CommonConfig, archs []string) ([]*nn.Network, []nn.Optimizer, error) {
	env := common.Env
	if len(archs) != env.Cfg.NumClients {
		return nil, nil, fmt.Errorf("baselines: %d archs for %d clients", len(archs), env.Cfg.NumClients)
	}
	nets := make([]*nn.Network, len(archs))
	opts := make([]nn.Optimizer, len(archs))
	for c, arch := range archs {
		net, err := models.BuildNamed(stats.Split(common.Seed, uint64(c)+100), arch, env.InputDim(), env.Classes())
		if err != nil {
			return nil, nil, fmt.Errorf("baselines: client %d: %w", c, err)
		}
		nets[c] = net
		opts[c] = nn.NewAdam(common.LR)
	}
	return nets, opts, nil
}

// flattenUpload flattens net's parameters into a vector from the round's
// vector source: the upload of FedAvg, FedProx and FedDF.
func flattenUpload(rc *engine.RoundContext, net *nn.Network) []float64 {
	params := net.Params()
	return nn.FlattenParamsInto(rc.Vector(nn.ParamCount(params)), params)
}

// weightedMean writes the sample-weighted mean of the uploads' params (Eq. 1)
// into dst, which must hold one value per parameter, and returns it.
func weightedMean(dst []float64, uploads []engine.Upload) []float64 {
	clear(dst)
	var totalSamples float64
	for _, u := range uploads {
		w := float64(u.Payload.NumSamples)
		for i, v := range u.Payload.Params {
			dst[i] += w * v
		}
		totalSamples += w
	}
	for i := range dst {
		dst[i] /= totalSamples
	}
	return dst
}
