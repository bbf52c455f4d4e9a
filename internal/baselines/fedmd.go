package baselines

import (
	"fmt"

	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/kd"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
	"fedpkd/internal/tensor"
)

// FedMDConfig parameterizes FedMD (Li & Wang, 2019) and, with an ERA
// temperature, DS-FL (Itahara et al., 2020).
type FedMDConfig struct {
	Common CommonConfig
	// LocalEpochs is the per-round private-training epoch count (paper: 10).
	LocalEpochs int
	// DistillEpochs is the per-round digest epoch count (paper: e_s = 20).
	DistillEpochs int
	// Archs lists each client's architecture; defaults to homogeneous
	// ResNet20. FedMD supports heterogeneous fleets.
	Archs []string
	// ERATemperature, when positive, switches aggregation to DS-FL's
	// entropy-reduction method with that temperature.
	ERATemperature float64
}

// FedMD runs logit-consensus federated distillation. Each round: clients
// train privately, upload public-set logits; the server aggregates them
// (plain mean for FedMD, entropy-reduction for DS-FL) and broadcasts the
// consensus; clients digest the consensus via KL distillation. There is no
// server model.
type FedMD struct {
	*engine.Runner
	h *fedMDHooks
}

var _ fl.Algorithm = (*FedMD)(nil)

// NewFedMD builds a FedMD run (or DS-FL when ERATemperature > 0).
func NewFedMD(cfg FedMDConfig) (*FedMD, error) {
	if err := cfg.Common.FillDefaults(); err != nil {
		return nil, err
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 10
	}
	if cfg.DistillEpochs == 0 {
		cfg.DistillEpochs = 20
	}
	if cfg.Archs == nil {
		cfg.Archs = models.HomogeneousFleet(cfg.Common.Env.Cfg.NumClients)
	}
	if cfg.Common.Env.Cfg.PublicSize == 0 {
		return nil, fmt.Errorf("baselines: FedMD needs a public dataset")
	}
	clients, opts, err := buildFleet(cfg.Common, cfg.Archs)
	if err != nil {
		return nil, err
	}
	name := "FedMD"
	if cfg.ERATemperature > 0 {
		name = "DS-FL"
	}
	h := &fedMDHooks{cfg: cfg, name: name, clients: clients, opts: opts}
	runner, err := engine.NewRunner(h, cfg.Common)
	if err != nil {
		return nil, err
	}
	return &FedMD{Runner: runner, h: h}, nil
}

// NewDSFL builds a DS-FL run: FedMD with entropy-reduction aggregation.
// The temperature defaults to 0.5 when unset.
func NewDSFL(cfg FedMDConfig) (*FedMD, error) {
	if cfg.ERATemperature == 0 {
		cfg.ERATemperature = 0.5
	}
	return NewFedMD(cfg)
}

// Clients returns the client models.
func (f *FedMD) Clients() []*nn.Network { return f.h.clients }

// fedMDHooks implements engine.Hooks. All state is per-client.
type fedMDHooks struct {
	cfg     FedMDConfig
	name    string
	clients []*nn.Network
	opts    []nn.Optimizer
}

var _ engine.Hooks = (*fedMDHooks)(nil)

// Name implements engine.Hooks.
func (h *fedMDHooks) Name() string { return h.name }

// GlobalState implements engine.Hooks; the consensus reaches clients
// through the broadcast.
func (h *fedMDHooks) GlobalState(round int) *engine.Payload { return nil }

// LocalUpdate implements engine.Hooks: private training, then public-set
// logits as the upload.
func (h *fedMDHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	rc.AddBatches(fl.TrainCE(h.clients[c], h.opts[c], env.ClientData[c], rc.LocalRNG(c),
		h.cfg.LocalEpochs, h.cfg.Common.BatchSize))
	return &engine.Payload{Logits: h.clients[c].Logits(env.Splits.Public.X)}, nil
}

// Aggregate implements engine.Hooks: build the logit consensus (mean for
// FedMD, entropy-reduction for DS-FL) and broadcast it.
func (h *fedMDHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	defer rc.Span(obs.PhaseAggregate)()
	clientLogits := make([]*tensor.Matrix, len(uploads))
	for i, u := range uploads {
		clientLogits[i] = u.Payload.Logits
	}
	var consensus *tensor.Matrix
	if h.cfg.ERATemperature > 0 {
		consensus = kd.AggregateERA(clientLogits, h.cfg.ERATemperature)
	} else {
		consensus = kd.AggregateMean(clientLogits)
	}
	return &engine.Payload{Logits: consensus}, nil
}

// Digest implements engine.Hooks: clients approach the consensus via pure
// KL (gamma = 1).
func (h *fedMDHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error {
	env := rc.Env()
	pseudo := kd.PseudoLabels(bcast.Logits)
	rc.AddBatches(fl.TrainDistill(h.clients[c], h.opts[c], env.Splits.Public.X, bcast.Logits, pseudo,
		rc.DigestRNG(c), h.cfg.DistillEpochs, h.cfg.Common.BatchSize, 1, 1))
	return nil
}

// Eval implements engine.Hooks. FedMD and DS-FL have no server model, so
// ServerAcc is -1.
func (h *fedMDHooks) Eval() (float64, float64) {
	env := h.cfg.Common.Env
	return -1, fl.MeanClientAccuracy(h.clients, env.LocalTests)
}
