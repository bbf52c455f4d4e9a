// Package fl is the federated-learning orchestration substrate: the
// experiment environment (datasets, partitions, per-client splits), shared
// training loops for the losses the paper's algorithms compose, parallel
// client execution, and per-round metric histories.
package fl

import (
	"fmt"

	"fedpkd/internal/dataset"
	"fedpkd/internal/stats"
)

// PartitionKind selects a non-IID partitioning method.
type PartitionKind string

// Supported partition kinds.
const (
	PartitionIID       PartitionKind = "iid"
	PartitionDirichlet PartitionKind = "dirichlet"
	PartitionShards    PartitionKind = "shards"
)

// PartitionConfig parameterizes how the training pool is split across
// clients.
type PartitionConfig struct {
	Kind PartitionKind
	// Alpha is the Dirichlet concentration (used when Kind is dirichlet).
	Alpha float64
	// Shards configures the shards method (used when Kind is shards).
	Shards dataset.ShardConfig
}

// String renders the partition setting the way the paper labels it.
func (p PartitionConfig) String() string {
	switch p.Kind {
	case PartitionDirichlet:
		return fmt.Sprintf("dirichlet(α=%g)", p.Alpha)
	case PartitionShards:
		return fmt.Sprintf("shards(k=%d)", p.Shards.ClassesPerClient)
	default:
		return string(p.Kind)
	}
}

// EnvConfig describes one experimental environment.
type EnvConfig struct {
	// Spec is the synthetic task standing in for CIFAR-10/100.
	Spec dataset.SyntheticSpec
	// NumClients is the number of participating clients.
	NumClients int
	// TrainSize, TestSize and PublicSize are the split sizes; the paper
	// uses a 5000-sample unlabeled public set.
	TrainSize, TestSize, PublicSize int
	// LocalTestSize is the per-client personalized test-set size.
	LocalTestSize int
	// Partition selects the non-IID method.
	Partition PartitionConfig
	// Seed drives every random choice in the environment.
	Seed uint64
}

// Env is a materialized environment: the splits, the per-client private
// datasets, and the matching local test sets.
type Env struct {
	Cfg        EnvConfig
	Splits     *dataset.Splits
	ClientData []*dataset.Dataset
	LocalTests []*dataset.LocalTest
}

// NewEnv generates the data and partitions it per the config.
func NewEnv(cfg EnvConfig) (*Env, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("fl: NumClients must be positive, got %d", cfg.NumClients)
	}
	if cfg.TrainSize <= 0 || cfg.TestSize <= 0 || cfg.PublicSize < 0 {
		return nil, fmt.Errorf("fl: invalid split sizes %d/%d/%d", cfg.TrainSize, cfg.TestSize, cfg.PublicSize)
	}
	splits := dataset.Generate(cfg.Spec, cfg.TrainSize, cfg.TestSize, cfg.PublicSize)

	rng := stats.Split(cfg.Seed, 0x9a47)
	var parts [][]int
	var err error
	switch cfg.Partition.Kind {
	case PartitionIID:
		parts = dataset.PartitionIID(rng, splits.Train, cfg.NumClients)
	case PartitionDirichlet:
		if cfg.Partition.Alpha <= 0 {
			return nil, fmt.Errorf("fl: dirichlet partition needs positive alpha, got %v", cfg.Partition.Alpha)
		}
		parts = dataset.PartitionDirichlet(rng, splits.Train, cfg.NumClients, cfg.Partition.Alpha)
	case PartitionShards:
		parts, err = dataset.PartitionShards(rng, splits.Train, cfg.NumClients, cfg.Partition.Shards)
		if err != nil {
			return nil, fmt.Errorf("fl: shards partition: %w", err)
		}
	default:
		return nil, fmt.Errorf("fl: unknown partition kind %q", cfg.Partition.Kind)
	}

	clientData := make([]*dataset.Dataset, cfg.NumClients)
	for c, part := range parts {
		clientData[c] = splits.Train.Subset(part)
	}
	localTestSize := cfg.LocalTestSize
	if localTestSize <= 0 {
		localTestSize = 100
	}
	localTests := dataset.LocalTestSets(stats.Split(cfg.Seed, 0x7e57), splits.Test, parts, splits.Train, localTestSize)

	return &Env{
		Cfg:        cfg,
		Splits:     splits,
		ClientData: clientData,
		LocalTests: localTests,
	}, nil
}

// Classes returns the task's class count.
func (e *Env) Classes() int { return e.Cfg.Spec.Classes }

// InputDim returns the task's input dimension.
func (e *Env) InputDim() int { return e.Cfg.Spec.InputDim }
