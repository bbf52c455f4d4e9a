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

// VanillaKDConfig parameterizes the plain KD-based FL method of the paper's
// motivating experiments (Figs. 1-3): clients train privately and upload
// public-set logits; the server trains on the equally averaged logits. No
// prototypes, no variance weighting, no filtering.
type VanillaKDConfig struct {
	Common CommonConfig
	// LocalEpochs per round (default 10).
	LocalEpochs int
	// ServerEpochs per round (default 20).
	ServerEpochs int
	// ClientArch and ServerArch default to ResNet20/ResNet56.
	ClientArch, ServerArch string
}

// VanillaKD is the strawman FedPKD improves on.
type VanillaKD struct {
	*engine.Runner
	h *vanillaKDHooks
}

var _ fl.Algorithm = (*VanillaKD)(nil)

// NewVanillaKD builds a plain KD-based FL run.
func NewVanillaKD(cfg VanillaKDConfig) (*VanillaKD, error) {
	if err := cfg.Common.FillDefaults(); err != nil {
		return nil, err
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 10
	}
	if cfg.ServerEpochs == 0 {
		cfg.ServerEpochs = 20
	}
	if cfg.ClientArch == "" {
		cfg.ClientArch = "ResNet20"
	}
	if cfg.ServerArch == "" {
		cfg.ServerArch = "ResNet56"
	}
	if cfg.Common.Env.Cfg.PublicSize == 0 {
		return nil, fmt.Errorf("baselines: VanillaKD needs a public dataset")
	}
	env := cfg.Common.Env
	archs := make([]string, env.Cfg.NumClients)
	for i := range archs {
		archs[i] = cfg.ClientArch
	}
	clients, opts, err := buildFleet(cfg.Common, archs)
	if err != nil {
		return nil, err
	}
	server, err := models.BuildNamed(stats.Split(cfg.Common.Seed, 99), cfg.ServerArch, env.InputDim(), env.Classes())
	if err != nil {
		return nil, err
	}
	h := &vanillaKDHooks{
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
	return &VanillaKD{Runner: runner, h: h}, nil
}

// vanillaKDHooks implements engine.Hooks. server state is written in
// Aggregate only.
type vanillaKDHooks struct {
	cfg       VanillaKDConfig
	clients   []*nn.Network
	opts      []nn.Optimizer
	server    *nn.Network
	serverOpt nn.Optimizer
}

var _ engine.Hooks = (*vanillaKDHooks)(nil)

// Name implements engine.Hooks.
func (h *vanillaKDHooks) Name() string { return "KD" }

// GlobalState implements engine.Hooks; vanilla KD sends nothing downstream.
func (h *vanillaKDHooks) GlobalState(round int) *engine.Payload { return nil }

// LocalUpdate implements engine.Hooks: private training, then public-set
// logits as the upload.
func (h *vanillaKDHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	rc.AddBatches(fl.TrainCE(h.clients[c], h.opts[c], env.ClientData[c], rc.LocalRNG(c),
		h.cfg.LocalEpochs, h.cfg.Common.BatchSize))
	return &engine.Payload{Logits: h.clients[c].Logits(env.Splits.Public.X)}, nil
}

// Aggregate implements engine.Hooks: train the server on the equally
// averaged client logits. No broadcast — clients never hear back, which is
// exactly the one-way strawman of Fig. 1.
func (h *vanillaKDHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	stopAgg := rc.Span(obs.PhaseAggregate)
	clientLogits := make([]*tensor.Matrix, len(uploads))
	for i, u := range uploads {
		clientLogits[i] = u.Payload.Logits
	}
	ensemble := kd.AggregateMean(clientLogits)
	pseudo := kd.PseudoLabels(ensemble)
	stopAgg()

	env := rc.Env()
	stopServer := rc.Span(obs.PhaseServerTrain)
	rc.AddBatches(fl.TrainServerDistill(h.server, h.serverOpt, env.Splits.Public.X, ensemble, pseudo,
		rc.ServerRNG(), h.cfg.ServerEpochs, h.cfg.Common.BatchSize, 0.5, 1))
	stopServer()
	return nil, nil
}

// Digest implements engine.Hooks; vanilla KD has no broadcast to digest.
func (h *vanillaKDHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error {
	return nil
}

// Eval implements engine.Hooks.
func (h *vanillaKDHooks) Eval() (float64, float64) {
	env := h.cfg.Common.Env
	return fl.Accuracy(h.server, env.Splits.Test), fl.MeanClientAccuracy(h.clients, env.LocalTests)
}
