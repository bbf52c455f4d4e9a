// Package core implements FedPKD, the paper's contribution: a
// prototype-based knowledge-distillation framework for heterogeneous
// federated learning. One communication round (Algorithm 2) is:
//
//  1. Client private training — Eq. (4) in round 0, Eq. (16) (CE +
//     ε·prototype MSE) afterwards.
//  2. Dual knowledge transfer — each client uploads its public-set logits
//     and its local prototypes (Eq. 5).
//  3. Prototype-based ensemble distillation — the server aggregates logits
//     with variance weights (Eqs. 6-7), aggregates prototypes (Eq. 8),
//     pseudo-labels the public set (Eq. 9), filters it with Algorithm 1,
//     and trains the server model with Eqs. (11)-(13).
//  4. Server knowledge transfer — the server sends its logits on the
//     filtered subset plus the global prototypes; clients train with
//     Eq. (15).
//
// The round skeleton itself — sampling, fan-out, ledger, obs, history —
// lives in internal/fl/engine; this package supplies only the FedPKD phase
// hooks.
package core

import (
	"fmt"
	"math"
	"sort"

	"fedpkd/internal/dataset"
	"fedpkd/internal/filter"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/kd"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/obs"
	"fedpkd/internal/proto"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// Aggregation selects how client logits are ensembled on the server.
type Aggregation string

// Supported logit aggregations. The paper's mechanism is variance
// weighting; mean exists for the ablation benches.
const (
	AggregationVariance Aggregation = "variance"
	AggregationMean     Aggregation = "mean"
)

// FilterSignal selects the quality signal Algorithm 1 ranks samples by.
type FilterSignal string

// Supported filter signals. The paper's mechanism ranks by prototype
// distance; confidence exists for the ablation benches.
const (
	FilterByPrototype  FilterSignal = "prototype"
	FilterByConfidence FilterSignal = "confidence"
)

// Config parameterizes a FedPKD run. Zero-valued hyperparameters are filled
// with the paper's defaults by New.
type Config struct {
	// Env supplies the data: client splits, public set, test sets.
	Env *fl.Env
	// ClientArchs names each client's architecture (len == NumClients);
	// defaults to the homogeneous ResNet20 fleet.
	ClientArchs []string
	// ServerArch names the server architecture; defaults to ResNet56.
	ServerArch string

	// ClientPrivateEpochs is e_{c,tr} (paper: 15).
	ClientPrivateEpochs int
	// ClientPublicEpochs is e_{c,p} (paper: 10).
	ClientPublicEpochs int
	// ServerEpochs is e_s (paper: 40).
	ServerEpochs int
	// BatchSize is B (paper: 32).
	BatchSize int
	// LR is the Adam learning rate η (paper: 0.001).
	LR float64
	// SelectRatio is θ, the kept fraction in Algorithm 1 (paper: 0.7).
	SelectRatio float64
	// Delta is δ, the KD-vs-prototype mix of the server loss (paper: 0.5).
	Delta float64
	// Gamma is γ, the KL-vs-CE mix of client public training (paper: 0.5).
	Gamma float64
	// Epsilon is ε, the prototype-regularization weight of client private
	// training (paper: 0.5).
	Epsilon float64
	// Temperature is the distillation temperature (paper: 1).
	Temperature float64

	// ClientFraction and ClientDropProb model partial participation and
	// upload failures; see engine.Config for semantics.
	ClientFraction float64
	ClientDropProb float64

	// DisablePrototypes removes the prototype loss terms from both the
	// server objective (Eq. 12) and client private training (Eq. 16) — the
	// paper's "w/o Pro" ablation.
	DisablePrototypes bool
	// DisableFiltering trains on the full public set — the paper's
	// "w/o D.F." ablation.
	DisableFiltering bool
	// Aggregation overrides the logit ensemble (default variance).
	Aggregation Aggregation
	// FilterSignal overrides the Algorithm 1 ranking signal (default
	// prototype distance).
	FilterSignal FilterSignal

	// Seed drives model initialization and batch order.
	Seed uint64
}

// engineConfig projects the shared knobs onto the engine's config.
func (c *Config) engineConfig() engine.Config {
	return engine.Config{
		Env:            c.Env,
		BatchSize:      c.BatchSize,
		LR:             c.LR,
		Seed:           c.Seed,
		ClientFraction: c.ClientFraction,
		ClientDropProb: c.ClientDropProb,
	}
}

// fillDefaults applies FedPKD's paper defaults on top of the engine's
// shared ones (batch size, learning rate, participation validation).
func (c *Config) fillDefaults() error {
	ec := c.engineConfig()
	err := ec.FillDefaults()
	c.BatchSize, c.LR = ec.BatchSize, ec.LR
	if c.Env != nil && c.ClientArchs == nil {
		c.ClientArchs = models.HomogeneousFleet(c.Env.Cfg.NumClients)
	}
	if c.ServerArch == "" {
		c.ServerArch = "ResNet56"
	}
	if c.ClientPrivateEpochs == 0 {
		c.ClientPrivateEpochs = 15
	}
	if c.ClientPublicEpochs == 0 {
		c.ClientPublicEpochs = 10
	}
	if c.ServerEpochs == 0 {
		c.ServerEpochs = 40
	}
	if c.SelectRatio == 0 {
		c.SelectRatio = 0.7
	}
	if c.Delta == 0 {
		c.Delta = 0.5
	}
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.5
	}
	if c.Temperature == 0 {
		c.Temperature = 1
	}
	if c.Aggregation == "" {
		c.Aggregation = AggregationVariance
	}
	if c.FilterSignal == "" {
		c.FilterSignal = FilterByPrototype
	}
	return err
}

// FedPKD is one configured run of the framework. The embedded engine runner
// provides Run, Round, Name, Ledger, and SetRecorder.
type FedPKD struct {
	*engine.Runner
	h *pkdHooks
}

var _ fl.Algorithm = (*FedPKD)(nil)

// New builds a FedPKD run from a config, applying the paper's defaults to
// unset hyperparameters.
func New(cfg Config) (*FedPKD, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("core: Config.Env is required")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	n := cfg.Env.Cfg.NumClients
	if len(cfg.ClientArchs) != n {
		return nil, fmt.Errorf("core: %d client archs for %d clients", len(cfg.ClientArchs), n)
	}
	if cfg.SelectRatio <= 0 || cfg.SelectRatio > 1 {
		return nil, fmt.Errorf("core: SelectRatio must be in (0,1], got %v", cfg.SelectRatio)
	}
	if cfg.Env.Cfg.PublicSize == 0 {
		return nil, fmt.Errorf("core: FedPKD needs a public dataset")
	}

	h := &pkdHooks{
		cfg:        cfg,
		clients:    make([]*nn.Network, n),
		clientOpts: make([]nn.Optimizer, n),
	}
	for c := 0; c < n; c++ {
		net, err := models.BuildNamed(stats.Split(cfg.Seed, uint64(c)+100), cfg.ClientArchs[c], cfg.Env.InputDim(), cfg.Env.Classes())
		if err != nil {
			return nil, fmt.Errorf("core: client %d: %w", c, err)
		}
		h.clients[c] = net
		h.clientOpts[c] = nn.NewAdam(cfg.LR)
	}
	server, err := models.BuildNamed(stats.Split(cfg.Seed, 99), cfg.ServerArch, cfg.Env.InputDim(), cfg.Env.Classes())
	if err != nil {
		return nil, fmt.Errorf("core: server: %w", err)
	}
	h.server = server
	h.serverOpt = nn.NewAdam(cfg.LR)

	runner, err := engine.NewRunner(h, cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &FedPKD{Runner: runner, h: h}, nil
}

// Server returns the trained server model.
func (f *FedPKD) Server() *nn.Network { return f.h.server }

// Clients returns the client models.
func (f *FedPKD) Clients() []*nn.Network { return f.h.clients }

// GlobalPrototypes returns the latest global prototype set (nil before the
// first round).
func (f *FedPKD) GlobalPrototypes() *proto.Set { return f.h.globalProtos }

// pkdHooks implements engine.Hooks with the FedPKD phases. globalProtos is
// the only cross-client state: written in Aggregate (which runs alone) and
// read by the next round's LocalUpdate, per the engine's concurrency
// contract.
type pkdHooks struct {
	cfg Config

	clients    []*nn.Network
	clientOpts []nn.Optimizer
	server     *nn.Network
	serverOpt  nn.Optimizer

	globalProtos *proto.Set
}

var _ engine.Hooks = (*pkdHooks)(nil)

// Name implements engine.Hooks.
func (h *pkdHooks) Name() string { return "FedPKD" }

// GlobalState implements engine.Hooks. FedPKD front-loads nothing: server
// knowledge reaches clients through the end-of-round broadcast.
func (h *pkdHooks) GlobalState(round int) *engine.Payload { return nil }

// LocalUpdate implements engine.Hooks: client private training (phase 1)
// and dual knowledge extraction (phase 2 — public-set logits plus local
// prototypes).
func (h *pkdHooks) LocalUpdate(rc *engine.RoundContext, c int, global *engine.Payload) (*engine.Payload, error) {
	env := rc.Env()
	rng := rc.LocalRNG(c)
	net := h.clients[c]
	if rc.Round() == 0 || h.globalProtos == nil || h.cfg.DisablePrototypes {
		fl.TrainCE(net, h.clientOpts[c], env.ClientData[c], rng, h.cfg.ClientPrivateEpochs, h.cfg.BatchSize)
	} else {
		fl.TrainCEWithProto(net, h.clientOpts[c], env.ClientData[c], rng,
			h.cfg.ClientPrivateEpochs, h.cfg.BatchSize, h.globalProtos, h.cfg.Epsilon)
	}
	return &engine.Payload{
		Logits: net.Logits(env.Splits.Public.X),
		Protos: proto.Compute(net.Features, env.ClientData[c]),
	}, nil
}

// Aggregate implements engine.Hooks: dual-knowledge aggregation (phase 3a),
// prototype-based data filtering (3b, Algorithm 1), and prototype-based
// ensemble distillation into the server model (3c, Eqs. 11-13). The
// broadcast carries the server's logits on the filtered subset, the subset
// indices, and the global prototypes.
func (h *pkdHooks) Aggregate(rc *engine.RoundContext, uploads []engine.Upload) (*engine.Payload, error) {
	env := rc.Env()
	publicX := env.Splits.Public.X

	stopAgg := rc.Span(obs.PhaseAggregate)
	clientLogits := make([]*tensor.Matrix, len(uploads))
	clientProtos := make([]*proto.Set, len(uploads))
	for i, u := range uploads {
		clientLogits[i] = u.Payload.Logits
		clientProtos[i] = u.Payload.Protos
	}
	var aggregated *tensor.Matrix
	switch h.cfg.Aggregation {
	case AggregationMean:
		aggregated = kd.AggregateMean(clientLogits)
	default:
		aggregated = kd.AggregateVarianceWeighted(clientLogits)
	}
	globalProtos, err := proto.Aggregate(clientProtos)
	if err != nil {
		stopAgg()
		return nil, fmt.Errorf("aggregate prototypes: %w", err)
	}
	h.globalProtos = globalProtos
	pseudo := kd.PseudoLabels(aggregated)
	stopAgg()

	stopFilter := rc.Span(obs.PhaseFilter)
	selected := h.selectPublicSubset(publicX, pseudo, aggregated, globalProtos)
	stopFilter()

	subsetX := dataset.GatherRows(publicX, selected)
	subsetTeacher := dataset.GatherRows(aggregated, selected)
	subsetPseudo := make([]int, len(selected))
	for i, j := range selected {
		subsetPseudo[i] = pseudo[j]
	}

	serverProtos := globalProtos
	if h.cfg.DisablePrototypes {
		serverProtos = nil
	}
	stopServer := rc.Span(obs.PhaseServerTrain)
	fl.TrainServerPKD(h.server, h.serverOpt, subsetX, subsetTeacher, subsetPseudo, serverProtos,
		rc.ServerRNG(), h.cfg.ServerEpochs, h.cfg.BatchSize, h.cfg.Delta, h.cfg.Temperature)
	stopServer()

	return &engine.Payload{
		Logits:  h.server.Logits(subsetX),
		Indices: selected,
		Protos:  globalProtos,
	}, nil
}

// Digest implements engine.Hooks: client public training against the
// server's subset logits (phase 4, Eq. 15). The broadcast's prototypes feed
// the next round's LocalUpdate via the hook state set in Aggregate.
func (h *pkdHooks) Digest(rc *engine.RoundContext, c int, bcast *engine.Payload) error {
	env := rc.Env()
	subsetX := dataset.GatherRows(env.Splits.Public.X, bcast.Indices)
	serverPseudo := kd.PseudoLabels(bcast.Logits)
	fl.TrainDistill(h.clients[c], h.clientOpts[c], subsetX, bcast.Logits, serverPseudo,
		rc.DigestRNG(c), h.cfg.ClientPublicEpochs, h.cfg.BatchSize, h.cfg.Gamma, h.cfg.Temperature)
	return nil
}

// Eval implements engine.Hooks.
func (h *pkdHooks) Eval() (float64, float64) {
	env := h.cfg.Env
	return fl.Accuracy(h.server, env.Splits.Test), fl.MeanClientAccuracy(h.clients, env.LocalTests)
}

// selectPublicSubset applies Algorithm 1 (or its ablation variants) and
// returns the selected public-set indices.
func (h *pkdHooks) selectPublicSubset(publicX *tensor.Matrix, pseudo []int, aggregated *tensor.Matrix, globalProtos *proto.Set) []int {
	n := publicX.Rows
	if h.cfg.DisableFiltering {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if h.cfg.FilterSignal == FilterByConfidence {
		return selectByConfidence(aggregated, pseudo, h.cfg.SelectRatio)
	}
	serverFeats := h.server.Features(publicX)
	return filter.Select(serverFeats, pseudo, globalProtos, h.cfg.SelectRatio)
}

// selectByConfidence is the ablation comparator for Algorithm 1: rank
// samples per pseudo-class by ensemble softmax confidence instead of
// prototype distance.
func selectByConfidence(aggregated *tensor.Matrix, pseudo []int, ratio float64) []int {
	// Confidence = max softmax prob; reuse the prototype filter by building
	// a distance-like score (1 - confidence) against a synthetic set.
	type scored struct {
		idx   int
		score float64
	}
	byClass := make(map[int][]scored)
	probs := make([]float64, aggregated.Cols)
	for i := 0; i < aggregated.Rows; i++ {
		stats.Softmax(aggregated.Row(i), probs)
		byClass[pseudo[i]] = append(byClass[pseudo[i]], scored{idx: i, score: 1 - stats.Max(probs)})
	}
	var selected []int
	for _, ss := range byClass {
		keep := int(math.Ceil(ratio * float64(len(ss))))
		if keep > len(ss) {
			keep = len(ss)
		}
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].score < ss[b].score })
		for k := 0; k < keep; k++ {
			selected = append(selected, ss[k].idx)
		}
	}
	sort.Ints(selected)
	return selected
}
