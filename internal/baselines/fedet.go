package baselines

import (
	"fmt"

	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/kd"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// FedETConfig parameterizes FedET (Cho et al., 2022).
type FedETConfig struct {
	Common CommonConfig
	// LocalEpochs is e_{c,tr} (paper: 10).
	LocalEpochs int
	// ServerEpochs is e_s (paper: 10).
	ServerEpochs int
	// ClientArchs lists per-client architectures; FedET supports
	// heterogeneous fleets (default heterogeneous ResNet11/20/29 cycle).
	ClientArchs []string
	// ServerArch is the larger server model (default ResNet56).
	ServerArch string
}

// FedET runs heterogeneous ensemble knowledge transfer: small client models
// upload public-set logits (weighted by ensemble confidence) plus their
// model parameters — FedET requires a unified representation-layer
// architecture and synchronizes it, which is what makes its traffic heavy —
// and a larger server model is trained by ensemble distillation; clients
// then distill from the server's logits.
type FedET struct {
	*engine.Runner
	h *fedETHooks
}

var _ fl.Algorithm = (*FedET)(nil)

// NewFedET builds a FedET run.
func NewFedET(cfg FedETConfig) (*FedET, error) {
	if err := cfg.Common.FillDefaults(); err != nil {
		return nil, err
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 10
	}
	if cfg.ServerEpochs == 0 {
		cfg.ServerEpochs = 10
	}
	if cfg.ClientArchs == nil {
		cfg.ClientArchs = models.HeterogeneousFleet(cfg.Common.Env.Cfg.NumClients)
	}
	if cfg.ServerArch == "" {
		cfg.ServerArch = "ResNet56"
	}
	if cfg.Common.Env.Cfg.PublicSize == 0 {
		return nil, fmt.Errorf("baselines: FedET needs a public dataset")
	}
	clients, opts, err := buildFleet(cfg.Common, cfg.ClientArchs)
	if err != nil {
		return nil, err
	}
	env := cfg.Common.Env
	server, err := models.BuildNamed(stats.Split(cfg.Common.Seed, 99), cfg.ServerArch, env.InputDim(), env.Classes())
	if err != nil {
		return nil, err
	}
	h := &fedETHooks{
		cfg:       cfg,
		clients:   clients,
		opts:      opts,
		server:    server,
		serverOpt: nn.NewAdam(cfg.Common.LR),
	}
	runner, err := engine.NewRunner(h, cfg.Common)
	if err != nil {
		return nil, err
	}
	return &FedET{Runner: runner, h: h}, nil
}

// fedETHooks implements engine.Hooks. server state is written in Aggregate
// only.
type fedETHooks struct {
	cfg       FedETConfig
	clients   []*nn.Network
	opts      []nn.Optimizer
	server    *nn.Network
	serverOpt nn.Optimizer
}

var _ engine.Hooks = (*fedETHooks)(nil)

// Name implements engine.Hooks.
func (h *fedETHooks) Name() string { return "FedET" }

// GlobalState implements engine.Hooks; server knowledge reaches clients
// through the broadcast.
func (h *fedETHooks) GlobalState(round int) *engine.Payload { return nil }

// LocalUpdate implements engine.Hooks: private training, then the dual
// upload — public-set logits plus the client's model parameters (FedET's
// representation-layer synchronization, charged via ParamsCounted without
// materializing the vector: the simulation's server never reads it).
func (h *fedETHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	rc.AddBatches(fl.TrainCE(h.clients[c], h.opts[c], env.ClientData[c], rc.LocalRNG(c),
		h.cfg.LocalEpochs, h.cfg.Common.BatchSize))
	return &engine.Payload{
		Logits:        h.clients[c].Logits(env.Splits.Public.X),
		ParamsCounted: h.clients[c].ParamCount(),
	}, nil
}

// Aggregate implements engine.Hooks: confidence-weighted ensemble
// distillation into the large server model, then broadcast the server's
// public-set logits.
func (h *fedETHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	stopAgg := rc.Span(obs.PhaseAggregate)
	clientLogits := make([]*tensor.Matrix, len(uploads))
	for i, u := range uploads {
		clientLogits[i] = u.Payload.Logits
	}
	ensemble := kd.AggregateConfidenceWeighted(clientLogits)
	pseudo := kd.PseudoLabels(ensemble)
	stopAgg()

	env := rc.Env()
	publicX := env.Splits.Public.X
	stopServer := rc.Span(obs.PhaseServerTrain)
	rc.AddBatches(fl.TrainServerDistill(h.server, h.serverOpt, publicX, ensemble, pseudo,
		rc.ServerRNG(), h.cfg.ServerEpochs, h.cfg.Common.BatchSize, 0.5, 1))
	stopServer()

	return &engine.Payload{Logits: h.server.Logits(publicX)}, nil
}

// Digest implements engine.Hooks: clients distill from the server's logits
// (5 epochs, per FedET's client-update schedule).
func (h *fedETHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error {
	env := rc.Env()
	serverPseudo := kd.PseudoLabels(bcast.Logits)
	rc.AddBatches(fl.TrainDistill(h.clients[c], h.opts[c], env.Splits.Public.X, bcast.Logits, serverPseudo,
		rc.DigestRNG(c), 5, h.cfg.Common.BatchSize, 0.5, 1))
	return nil
}

// Eval implements engine.Hooks.
func (h *fedETHooks) Eval() (float64, float64) {
	env := h.cfg.Common.Env
	return fl.Accuracy(h.server, env.Splits.Test), fl.MeanClientAccuracy(h.clients, env.LocalTests)
}
