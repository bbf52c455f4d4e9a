package baselines

import (
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
	"fedpkd/internal/stats"
)

// FedAvgConfig parameterizes FedAvg (McMahan et al., 2017) and, with a
// positive Mu, FedProx (Li et al., 2020).
type FedAvgConfig struct {
	Common CommonConfig
	// LocalEpochs is e_{c,tr}; the paper uses 10 for FedAvg/FedProx.
	LocalEpochs int
	// Arch is the shared model architecture (default ResNet20 — FedAvg
	// requires homogeneous models).
	Arch string
	// Mu is the FedProx proximal coefficient; 0 disables it (plain FedAvg).
	Mu float64
}

// FedAvg runs weight-averaging federated learning. Each round: clients load
// the global weights (the engine's front-loaded GlobalState download),
// train locally (with an optional proximal term), and upload their weights;
// the server computes the sample-weighted average (Eq. 1). There is no
// post-aggregation broadcast — the next round's GlobalState delivers the
// new weights.
type FedAvg struct {
	*engine.Runner
	h *fedAvgHooks
}

var _ fl.Algorithm = (*FedAvg)(nil)

// NewFedAvg builds a FedAvg run (or FedProx when cfg.Mu > 0).
func NewFedAvg(cfg FedAvgConfig) (*FedAvg, error) {
	if err := cfg.Common.FillDefaults(); err != nil {
		return nil, err
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 10
	}
	if cfg.Arch == "" {
		cfg.Arch = "ResNet20"
	}
	env := cfg.Common.Env
	archs := make([]string, env.Cfg.NumClients)
	for i := range archs {
		archs[i] = cfg.Arch
	}
	clients, opts, err := buildFleet(cfg.Common, archs)
	if err != nil {
		return nil, err
	}
	evalNet, err := models.BuildNamed(stats.Split(cfg.Common.Seed, 99), cfg.Arch, env.InputDim(), env.Classes())
	if err != nil {
		return nil, err
	}
	name := "FedAvg"
	if cfg.Mu > 0 {
		name = "FedProx"
	}
	h := &fedAvgHooks{
		cfg:     cfg,
		name:    name,
		clients: clients,
		opts:    opts,
		evalNet: evalNet,
		global:  nn.FlattenParams(evalNet.Params()),
		spare:   make([]float64, evalNet.ParamCount()),
	}
	runner, err := engine.NewRunner(h, cfg.Common)
	if err != nil {
		return nil, err
	}
	return &FedAvg{Runner: runner, h: h}, nil
}

// NewFedProx builds a FedProx run: FedAvg with a proximal term. Mu defaults
// to 0.01 when unset.
func NewFedProx(cfg FedAvgConfig) (*FedAvg, error) {
	if cfg.Mu == 0 {
		cfg.Mu = 0.01
	}
	return NewFedAvg(cfg)
}

// fedAvgHooks implements engine.Hooks. global is the only cross-client
// state: replaced in Aggregate, read by the next round's GlobalState.
type fedAvgHooks struct {
	cfg     FedAvgConfig
	name    string
	clients []*nn.Network
	opts    []nn.Optimizer
	// evalNet holds the global weights for server-side evaluation.
	evalNet *nn.Network
	// global is the current global vector; GlobalState hands it out
	// uncopied. spare is the one Aggregate averages into before the two
	// swap, so each vector holds one global for two rounds (see
	// Aggregate).
	global, spare []float64
}

var _ engine.Hooks = (*fedAvgHooks)(nil)

// Name implements engine.Hooks.
func (h *fedAvgHooks) Name() string { return h.name }

// GlobalState implements engine.Hooks: every participant downloads the
// current global weights before training.
func (h *fedAvgHooks) GlobalState(round int) *engine.Payload {
	return &engine.Payload{Params: h.global}
}

// LocalUpdate implements engine.Hooks: load the global weights, train
// locally, upload the updated weights.
func (h *fedAvgHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	if err := nn.SetFlatParams(h.clients[c].Params(), global.Params); err != nil {
		return nil, err
	}
	rng := rc.LocalRNG(c)
	if h.cfg.Mu > 0 {
		rc.AddBatches(fl.TrainCEProx(h.clients[c], h.opts[c], env.ClientData[c], rng,
			h.cfg.LocalEpochs, h.cfg.Common.BatchSize, h.cfg.Mu, global.Params))
	} else {
		rc.AddBatches(fl.TrainCE(h.clients[c], h.opts[c], env.ClientData[c], rng,
			h.cfg.LocalEpochs, h.cfg.Common.BatchSize))
	}
	return &engine.Payload{
		Params:     flattenUpload(rc, h.clients[c]),
		NumSamples: env.ClientData[c].Len(),
	}, nil
}

// Aggregate implements engine.Hooks: the sample-weighted average (Eq. 1).
// No broadcast — the averaged weights reach clients via GlobalState.
//
// The average goes into spare, and the global it replaces becomes the next
// spare, so this round's global is overwritten only by the next round's
// Aggregate. Everything that holds it uncopied lets go before then: the
// round's plan and its encoded RoundStart, FedProx's proximal reference and
// the delta references of the round's uploads all end with this round, and
// async dispatches and checkpoints copy it.
func (h *fedAvgHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	defer rc.Span(obs.PhaseAggregate)()
	h.global, h.spare = weightedMean(h.spare, uploads), h.global
	return nil, nn.SetFlatParams(h.evalNet.Params(), h.global)
}

// Digest implements engine.Hooks; FedAvg has no broadcast to digest.
func (h *fedAvgHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error { return nil }

// Eval implements engine.Hooks.
func (h *fedAvgHooks) Eval() (float64, float64) {
	env := h.cfg.Common.Env
	return fl.Accuracy(h.evalNet, env.Splits.Test), fl.MeanClientAccuracy(h.clients, env.LocalTests)
}
