package baselines

import (
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
	"fedpkd/internal/proto"
)

// FedProtoConfig parameterizes FedProto (Tan et al., 2021), the
// prototype-only method the paper's related work contrasts FedPKD with:
// clients exchange nothing but per-class prototypes; the server aggregates
// them and sends them back as regularization targets. There is no server
// model and no public dataset.
type FedProtoConfig struct {
	Common CommonConfig
	// LocalEpochs per round (default 10).
	LocalEpochs int
	// Epsilon weights the prototype-regularization term of local training
	// (default 0.5, matching FedPKD's ε).
	Epsilon float64
	// Archs lists per-client architectures; FedProto supports heterogeneous
	// fleets as long as the feature width is shared (the zoo guarantees it).
	Archs []string
}

// FedProto runs prototype-aggregation federated learning.
type FedProto struct {
	*engine.Runner
	h *fedProtoHooks
}

var _ fl.Algorithm = (*FedProto)(nil)

// NewFedProto builds a FedProto run.
func NewFedProto(cfg FedProtoConfig) (*FedProto, error) {
	if err := cfg.Common.FillDefaults(); err != nil {
		return nil, err
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 10
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.5
	}
	if cfg.Archs == nil {
		cfg.Archs = models.HomogeneousFleet(cfg.Common.Env.Cfg.NumClients)
	}
	clients, opts, err := buildFleet(cfg.Common, cfg.Archs)
	if err != nil {
		return nil, err
	}
	h := &fedProtoHooks{cfg: cfg, clients: clients, opts: opts}
	runner, err := engine.NewRunner(h, cfg.Common)
	if err != nil {
		return nil, err
	}
	return &FedProto{Runner: runner, h: h}, nil
}

// GlobalPrototypes returns the latest aggregated prototypes (nil before the
// first round).
func (f *FedProto) GlobalPrototypes() *proto.Set { return f.h.global }

// fedProtoHooks implements engine.Hooks. global is the only cross-client
// state: written in Aggregate, read by the next round's LocalUpdate.
type fedProtoHooks struct {
	cfg     FedProtoConfig
	clients []*nn.Network
	opts    []nn.Optimizer
	global  *proto.Set
}

var _ engine.Hooks = (*fedProtoHooks)(nil)

// Name implements engine.Hooks.
func (h *fedProtoHooks) Name() string { return "FedProto" }

// GlobalState implements engine.Hooks; the aggregated prototypes reach
// clients through the broadcast.
func (h *fedProtoHooks) GlobalState(round int) *engine.Payload { return nil }

// LocalUpdate implements engine.Hooks: local training regularized toward
// the global prototypes (plain CE before any exist), then upload the
// client's per-class prototypes.
func (h *fedProtoHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	rng := rc.LocalRNG(c)
	if rc.Round() == 0 || h.global == nil {
		rc.AddBatches(fl.TrainCE(h.clients[c], h.opts[c], env.ClientData[c], rng, h.cfg.LocalEpochs, h.cfg.Common.BatchSize))
	} else {
		rc.AddBatches(fl.TrainCEWithProto(h.clients[c], h.opts[c], env.ClientData[c], rng,
			h.cfg.LocalEpochs, h.cfg.Common.BatchSize, h.global, h.cfg.Epsilon))
	}
	return &engine.Payload{Protos: proto.Compute(h.clients[c].VisitFeatures, env.ClientData[c])}, nil
}

// Aggregate implements engine.Hooks: average the client prototypes and
// broadcast the result.
func (h *fedProtoHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	stopAgg := rc.Span(obs.PhaseAggregate)
	clientProtos := make([]*proto.Set, len(uploads))
	for i, u := range uploads {
		clientProtos[i] = u.Payload.Protos
	}
	global, err := proto.Aggregate(clientProtos)
	stopAgg()
	if err != nil {
		return nil, err
	}
	h.global = global
	return &engine.Payload{Protos: global}, nil
}

// Digest implements engine.Hooks. The broadcast's prototypes feed the next
// round's LocalUpdate via the hook state set in Aggregate; there is no
// digest-time training.
func (h *fedProtoHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error {
	return nil
}

// Eval implements engine.Hooks. FedProto has no server model, so ServerAcc
// is -1.
func (h *fedProtoHooks) Eval() (float64, float64) {
	env := h.cfg.Common.Env
	return -1, fl.MeanClientAccuracy(h.clients, env.LocalTests)
}
