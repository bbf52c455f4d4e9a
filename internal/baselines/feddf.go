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

// FedDFConfig parameterizes FedDF (Lin et al., 2020).
type FedDFConfig struct {
	Common CommonConfig
	// LocalEpochs is e_{c,tr} (paper: 30 for FedDF).
	LocalEpochs int
	// ServerEpochs is e_s, the ensemble-distillation epochs (paper: 5).
	ServerEpochs int
	// Arch is the shared architecture; FedDF constrains the server model to
	// the client architecture (default ResNet20).
	Arch string
}

// FedDF runs robust model fusion: clients train from the global weights and
// upload their models; the server initializes from the FedAvg average and
// then fine-tunes it by distilling the ensemble of client logits on the
// public set; the fused model reaches clients via the next round's
// GlobalState. Because clients ship whole models, the server can compute
// their public-set logits locally — no logit traffic (the upload marks them
// LogitsLocal).
type FedDF struct {
	*engine.Runner
	h *fedDFHooks
}

var _ fl.Algorithm = (*FedDF)(nil)

// NewFedDF builds a FedDF run.
func NewFedDF(cfg FedDFConfig) (*FedDF, error) {
	if err := cfg.Common.FillDefaults(); err != nil {
		return nil, err
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 30
	}
	if cfg.ServerEpochs == 0 {
		cfg.ServerEpochs = 5
	}
	if cfg.Arch == "" {
		cfg.Arch = "ResNet20"
	}
	if cfg.Common.Env.Cfg.PublicSize == 0 {
		return nil, fmt.Errorf("baselines: FedDF needs a public dataset")
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
	server, err := models.BuildNamed(stats.Split(cfg.Common.Seed, 99), cfg.Arch, env.InputDim(), env.Classes())
	if err != nil {
		return nil, err
	}
	h := &fedDFHooks{
		cfg:     cfg,
		clients: clients,
		opts:    opts,
		server:  server,
		global:  nn.FlattenParams(server.Params()),
		spare:   make([]float64, server.ParamCount()),
	}
	runner, err := engine.NewRunner(h, cfg.Common)
	if err != nil {
		return nil, err
	}
	return &FedDF{Runner: runner, h: h}, nil
}

// fedDFHooks implements engine.Hooks. server and global are cross-client
// state: written in Aggregate, read by the next round's GlobalState and
// LocalUpdate.
type fedDFHooks struct {
	cfg     FedDFConfig
	clients []*nn.Network
	opts    []nn.Optimizer
	server  *nn.Network
	// global and spare swap in Aggregate as FedAvg's do (fedAvgHooks).
	global, spare []float64
}

var _ engine.Hooks = (*fedDFHooks)(nil)

// Name implements engine.Hooks.
func (h *fedDFHooks) Name() string { return "FedDF" }

// GlobalState implements engine.Hooks: every participant downloads the
// fused weights before training.
func (h *fedDFHooks) GlobalState(round int) *engine.Payload {
	return &engine.Payload{Params: h.global}
}

// LocalUpdate implements engine.Hooks: load the fused weights, train
// locally, upload the whole model. The public-set logits ride along marked
// LogitsLocal — the server holds the uploaded model, so they cost nothing
// on the wire.
func (h *fedDFHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	if err := nn.SetFlatParams(h.clients[c].Params(), global.Params); err != nil {
		return nil, err
	}
	rc.AddBatches(fl.TrainCE(h.clients[c], h.opts[c], env.ClientData[c], rc.LocalRNG(c),
		h.cfg.LocalEpochs, h.cfg.Common.BatchSize))
	return &engine.Payload{
		Params:      flattenUpload(rc, h.clients[c]),
		Logits:      h.clients[c].Logits(env.Splits.Public.X),
		LogitsLocal: true,
		NumSamples:  env.ClientData[c].Len(),
	}, nil
}

// Aggregate implements engine.Hooks: initialize fusion from the FedAvg
// average (Eq. 1), then fine-tune toward the mean client logits (pure KL).
// The optimizer is recreated each round: fusion restarts from the averaged
// weights, so stale Adam moments would be misleading.
func (h *fedDFHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	stopAgg := rc.Span(obs.PhaseAggregate)
	clientLogits := make([]*tensor.Matrix, len(uploads))
	for i, u := range uploads {
		clientLogits[i] = u.Payload.Logits
	}
	if err := nn.SetFlatParams(h.server.Params(), weightedMean(h.spare, uploads)); err != nil {
		stopAgg()
		return nil, err
	}
	ensemble := kd.AggregateMean(clientLogits)
	pseudo := kd.PseudoLabels(ensemble)
	stopAgg()

	env := rc.Env()
	stopServer := rc.Span(obs.PhaseServerTrain)
	rc.AddBatches(fl.TrainServerDistill(h.server, nn.NewAdam(h.cfg.Common.LR), env.Splits.Public.X, ensemble, pseudo,
		rc.ServerRNG(), h.cfg.ServerEpochs, h.cfg.Common.BatchSize, 1, 1))
	stopServer()

	h.global, h.spare = nn.FlattenParamsInto(h.spare, h.server.Params()), h.global
	return nil, nil
}

// Digest implements engine.Hooks; FedDF has no broadcast to digest.
func (h *fedDFHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error { return nil }

// Eval implements engine.Hooks. FedDF is not focused on client-model
// performance (per the paper's comparison), so ClientAcc is -1.
func (h *fedDFHooks) Eval() (float64, float64) {
	env := h.cfg.Common.Env
	return fl.Accuracy(h.server, env.Splits.Test), -1
}
