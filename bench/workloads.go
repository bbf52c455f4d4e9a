package main

import (
	"fmt"

	"fedpkd/internal/comm"
	"fedpkd/internal/dataset"
	"fedpkd/internal/distrib"
	"fedpkd/internal/expt"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
)

// referenceSeed is the frozen input the quality numbers are read from:
// every run plays it first, so final_acc, wire_kb_per_round and
// rounds_to_target repeat bit for bit whatever --seed says, and an
// arithmetic change shows as an exact difference instead of drowning in the
// seed-to-seed spread of a non-IID partition (which is tens of percent).
const referenceSeed = 42

// seedSlots is how many distinct inputs a run cycles through: slot 0 is the
// reference seed, the others are drawn from --seed. Episodes past the last
// slot replay earlier ones, which is what the same-seed determinism check
// compares.
const seedSlots = 4

// workload is one frozen round path. The sizes below are constants of the
// benchmark: changing one starts a new baseline.
type workload struct {
	Name string
	Why  string

	Algo    string // expt algorithm name
	Clients int
	Train   int
	Public  int
	Test    int
	Hetero  bool
	Scale   expt.Scale // only the epoch fields are read

	Mode   distrib.Mode // "" runs the in-process engine
	Shards int          // > 1 reduces through a two-tier tree
	Codec  string       // "" keeps float64raw
	Async  bool         // K=4, α=0.5, default arrival schedule
	Ckpt   bool         // durable checkpoint on every barrier

	// Warmup rounds fill scratch arenas, lazy buffers and gob type tables
	// and belong to setup_s; Rounds are timed, per episode.
	Warmup int
	Rounds int

	// Target is the tracked accuracy (client_acc for FedPKD, server_acc for
	// FedAvg) the reference seed first reaches about a third of the way
	// into an episode; Floor is the least final accuracy the reference seed
	// may end on.
	Target float64
	Floor  float64
}

const defaultWarmup = 3

var workloads = []*workload{
	{
		Name: "train_inproc",
		Why:  "in-process FedPKD on a heterogeneous fleet: training, distillation, filtering and prototype maths dominate; wire, codec, tree and checkpoint code does no work",
		Algo: expt.AlgoFedPKD, Clients: 5, Train: 1000, Public: 300, Test: 300, Hetero: true,
		Scale:  expt.Scale{PKDPrivateEpochs: 3, PKDPublicEpochs: 2, PKDServerEpochs: 5},
		Warmup: defaultWarmup, Rounds: 14,
		Target: 0.60, Floor: 0.50,
	},
	{
		Name: "wire_tcp_flat",
		Why:  "FedAvg over loopback TCP to a flat server, 32 clients, float64raw: large parameter payloads make gob, envelope framing and the collect loop a third of the CPU",
		Algo: expt.AlgoFedAvg, Clients: 32, Train: 1280, Public: 100, Test: 200,
		Scale:  expt.Scale{LocalEpochs: 1},
		Mode:   distrib.ModeTCP,
		Warmup: defaultWarmup, Rounds: 40,
		Target: 0.25, Floor: 0.35,
	},
	{
		Name: "tree_int8_tcp",
		Why:  "FedPKD over loopback TCP through a 4-shard two-tier tree with the int8 codec: many small logit and prototype messages, quantisation, leaf reduce, shard digests, root merge",
		Algo: expt.AlgoFedPKD, Clients: 16, Train: 1600, Public: 300, Test: 300, Hetero: true,
		Scale: expt.Scale{PKDPrivateEpochs: 2, PKDPublicEpochs: 1, PKDServerEpochs: 2},
		Mode:  distrib.ModeTCP, Shards: 4, Codec: "int8",
		Warmup: defaultWarmup, Rounds: 14,
		Target: 0.42, Floor: 0.30,
	},
	{
		Name: "async_ckpt_bus",
		Why:  "FedPKD on the in-memory bus with async K=4 flushes and a durable checkpoint on every barrier: only here are ckpt and the async bookkeeping on the critical path",
		Algo: expt.AlgoFedPKD, Clients: 8, Train: 1600, Public: 400, Test: 300, Hetero: true,
		Scale: expt.Scale{PKDPrivateEpochs: 2, PKDPublicEpochs: 1, PKDServerEpochs: 2},
		Mode:  distrib.ModeBus, Async: true, Ckpt: true,
		Warmup: defaultWarmup, Rounds: 24,
		Target: 0.55, Floor: 0.45,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tracked picks the accuracy the workload's targets refer to.
func (w *workload) tracked(m fl.RoundMetrics) float64 {
	if w.Algo == expt.AlgoFedAvg {
		return m.ServerAcc
	}
	return m.ClientAcc
}

// hookLayer names the module whose hooks run the workload's rounds.
func (w *workload) hookLayer() string {
	if w.Algo == expt.AlgoFedPKD {
		return "core"
	}
	return "baselines"
}

// splitmix64 is the seed mixer; one step decorrelates consecutive seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// episodeSeed maps (--seed, episode) to the seed of that episode's inputs.
func episodeSeed(seed uint64, episode int) uint64 {
	slot := episode % seedSlots
	if slot == 0 {
		return referenceSeed
	}
	return splitmix64(seed*seedSlots + uint64(slot))
}

// inputs is everything an episode's seed generates; the program sees only
// these values, never the seed's provenance.
type inputs struct {
	Env      fl.EnvConfig
	AlgoSeed uint64
	Arrivals engine.ArrivalSchedule
}

// generate derives the workload's inputs from one seed: the synthetic task,
// the Dirichlet partition, the algorithm's init and batch order, and the
// async arrival clock.
func (w *workload) generate(seed uint64) inputs {
	return inputs{
		Env: fl.EnvConfig{
			Spec:       dataset.SynthC10(seed),
			NumClients: w.Clients,
			TrainSize:  w.Train, TestSize: w.Test, PublicSize: w.Public,
			Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.3},
			Seed:      seed,
		},
		AlgoSeed: seed,
		Arrivals: engine.ArrivalSchedule{Seed: seed},
	}
}

// buildOn configures the workload's algorithm on a materialised environment
// and returns its engine runner. ckptDir is where the checkpoint policy
// writes when the workload has one.
func (w *workload) buildOn(env *fl.Env, in inputs, ckptDir string) (*engine.Runner, error) {
	algo, err := expt.BuildAlgorithmOpts(w.Algo, env, w.Scale, in.AlgoSeed, w.Hetero, expt.AlgoOptions{})
	if err != nil {
		return nil, err
	}
	runner, err := engine.Of(algo)
	if err != nil {
		return nil, err
	}
	if w.Codec != "" {
		c, err := comm.ParseCodec(w.Codec)
		if err != nil {
			return nil, err
		}
		if err := runner.SetCodec(c); err != nil {
			return nil, err
		}
	}
	if w.Async {
		err := runner.SetAsync(engine.AsyncOptions{BufferSize: 4, StalenessAlpha: 0.5, Schedule: in.Arrivals})
		if err != nil {
			return nil, err
		}
	}
	if w.Ckpt && ckptDir != "" {
		runner.SetCheckpointPolicy(ckptDir, 1)
	}
	return runner, nil
}

// distribOptions is the service configuration of a distributed workload.
func (w *workload) distribOptions() distrib.Options {
	opts := distrib.Options{Mode: w.Mode}
	if w.Shards > 1 {
		opts.Topology = distrib.Topology{Shards: w.Shards}
	}
	return opts
}
