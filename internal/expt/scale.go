// Package expt is the experiment harness: one runner per table and figure
// in the paper's evaluation (Figs. 1-3 and 5-10, Table I), each producing
// the same rows/series the paper reports, at configurable compute scales.
package expt

import (
	"fmt"
	"sort"

	"fedpkd/internal/dataset"
	"fedpkd/internal/fl"
)

// Scale bundles the compute-budget knobs of an experiment run. The paper's
// exact schedule (10k training samples, 5k public samples, 70 rounds, 40
// server epochs...) is hours of CPU per configuration in a pure-Go engine,
// so the default scales shrink sizes and schedules while preserving every
// structural property the experiments measure (relative algorithm ordering,
// trend directions, crossovers). See DESIGN.md §1.
type Scale struct {
	Name       string
	NumClients int

	TrainSize, TestSize, PublicSize, LocalTestSize int

	// Rounds is the number of communication rounds T.
	Rounds int

	// FedPKD epochs (paper: 15 / 10 / 40).
	PKDPrivateEpochs, PKDPublicEpochs, PKDServerEpochs int

	// Baseline epochs (paper: 10 local; 20 FedMD/DS-FL server; 10 FedET
	// server; 30/5 FedDF).
	LocalEpochs        int
	DistillEpochs      int
	FedDFLocalEpochs   int
	FedDFServerEpochs  int
	FedETServerEpochs  int
	VanillaServerEpoch int
}

// Predefined scales.
var (
	// Quick is for tests and demos: seconds per configuration.
	Quick = Scale{
		Name:       "quick",
		NumClients: 3,
		TrainSize:  600, TestSize: 400, PublicSize: 200, LocalTestSize: 50,
		Rounds:           3,
		PKDPrivateEpochs: 3, PKDPublicEpochs: 2, PKDServerEpochs: 5,
		LocalEpochs: 3, DistillEpochs: 3,
		FedDFLocalEpochs: 4, FedDFServerEpochs: 2,
		FedETServerEpochs: 3, VanillaServerEpoch: 3,
	}
	// Std is the EXPERIMENTS.md reporting scale: tens of seconds per
	// configuration on a laptop CPU.
	// The public set is half the training pool, matching the paper's
	// 5000/10000 proportion — distillation quality depends on it.
	Std = Scale{
		Name:       "std",
		NumClients: 8,
		TrainSize:  2400, TestSize: 800, PublicSize: 1200, LocalTestSize: 100,
		Rounds:           8,
		PKDPrivateEpochs: 4, PKDPublicEpochs: 2, PKDServerEpochs: 8,
		LocalEpochs: 4, DistillEpochs: 3,
		FedDFLocalEpochs: 6, FedDFServerEpochs: 2,
		FedETServerEpochs: 3, VanillaServerEpoch: 4,
	}
	// Full restores the paper's schedule. Expect hours per configuration.
	Full = Scale{
		Name:       "full",
		NumClients: 10,
		TrainSize:  10000, TestSize: 2000, PublicSize: 5000, LocalTestSize: 200,
		Rounds:           70,
		PKDPrivateEpochs: 15, PKDPublicEpochs: 10, PKDServerEpochs: 40,
		LocalEpochs: 10, DistillEpochs: 20,
		FedDFLocalEpochs: 30, FedDFServerEpochs: 5,
		FedETServerEpochs: 10, VanillaServerEpoch: 20,
	}
)

// ScaleByName looks up a predefined scale.
func ScaleByName(name string) (Scale, error) {
	for _, s := range []Scale{Quick, Std, Full} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("expt: unknown scale %q (have quick, std, full)", name)
}

// Task identifies one of the two synthetic stand-ins.
type Task string

// The two tasks of the paper's evaluation.
const (
	TaskC10  Task = "SynthC10"
	TaskC100 Task = "SynthC100"
)

// Spec returns the dataset spec for a task.
func (t Task) Spec(seed uint64) dataset.SyntheticSpec {
	if t == TaskC100 {
		return dataset.SynthC100(seed)
	}
	return dataset.SynthC10(seed)
}

// Classes returns the task's class count.
func (t Task) Classes() int {
	if t == TaskC100 {
		return 100
	}
	return 10
}

// Setting is one non-IID configuration of the evaluation grid.
type Setting struct {
	// Label is the paper's name for the setting, e.g. "k=3" or "α=0.1".
	Label string
	// Partition is the materialized configuration.
	Partition fl.PartitionConfig
}

// SettingsFor returns the paper's evaluation grid for a task at a scale:
// shards with the task's k values and Dirichlet with α ∈ {0.1, 0.5}.
// highOnly restricts to the highly non-IID half (k low, α = 0.1).
func SettingsFor(task Task, sc Scale, highOnly bool) []Setting {
	kLow, kHigh := 3, 5
	if task == TaskC100 {
		kLow, kHigh = 30, 50
	}
	shardCfg := func(k int) fl.PartitionConfig {
		// Distribute the shard inventory the class-balanced generator can
		// actually provide: floor(perClass/shardSize) shards per class,
		// split evenly across clients.
		perClass := sc.TrainSize / task.Classes()
		shardSize := 10
		if perClass < shardSize {
			shardSize = perClass // tiny scales: one shard per class minimum
		}
		if shardSize < 1 {
			shardSize = 1
		}
		totalShards := (perClass / shardSize) * task.Classes()
		return fl.PartitionConfig{
			Kind: fl.PartitionShards,
			Shards: dataset.ShardConfig{
				ShardSize:        shardSize,
				ShardsPerClient:  totalShards / sc.NumClients,
				ClassesPerClient: k,
			},
		}
	}
	settings := []Setting{
		{Label: fmt.Sprintf("k=%d", kLow), Partition: shardCfg(kLow)},
		{Label: "α=0.1", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.1}},
	}
	if !highOnly {
		settings = append(settings,
			Setting{Label: fmt.Sprintf("k=%d", kHigh), Partition: shardCfg(kHigh)},
			Setting{Label: "α=0.5", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5}},
		)
	}
	sort.Slice(settings, func(i, j int) bool { return settings[i].Label < settings[j].Label })
	return settings
}

// NewEnv materializes an environment for a task/setting at a scale.
func NewEnv(task Task, setting Setting, sc Scale, seed uint64) (*fl.Env, error) {
	return fl.NewEnv(fl.EnvConfig{
		Spec:       task.Spec(seed),
		NumClients: sc.NumClients,
		TrainSize:  sc.TrainSize, TestSize: sc.TestSize, PublicSize: sc.PublicSize,
		LocalTestSize: sc.LocalTestSize,
		Partition:     setting.Partition,
		Seed:          seed,
	})
}
