// Package fedpkd is a from-scratch Go implementation of FedPKD — "A
// Prototype-Based Knowledge Distillation Framework for Heterogeneous
// Federated Learning" (Lyu et al., ICDCS 2023) — together with every
// substrate it needs: a pure-Go neural-network engine, synthetic
// CIFAR-stand-in datasets with non-IID partitioners, all six baseline
// algorithms the paper compares against, communication accounting, and the
// experiment harness that regenerates the paper's tables and figures.
//
// This package is the public facade. It exports what cmd/ and examples/
// call, plus the config types, field types and enum constants needed to build
// those calls' arguments; everything else stays internal. A minimal run:
//
//	env, err := fedpkd.NewEnvironment(fedpkd.EnvConfig{
//		Spec:       fedpkd.SynthC10(42),
//		NumClients: 5,
//		TrainSize:  3000, TestSize: 1000, PublicSize: 600,
//		Partition: fedpkd.PartitionConfig{Kind: fedpkd.PartitionDirichlet, Alpha: 0.5},
//		Seed:      42,
//	})
//	// handle err
//	algo, err := fedpkd.NewFedPKD(fedpkd.Config{Env: env, Seed: 42})
//	// handle err
//	history, err := algo.Run(10)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package fedpkd

import (
	"fedpkd/internal/core"
	"fedpkd/internal/dataset"
	"fedpkd/internal/fl"
	"fedpkd/internal/models"
)

// Core environment and run types, aliased from the internal implementation
// so downstream users import only this package.
type (
	// Env is a materialized experiment environment: client datasets, the
	// unlabeled public set, and test sets.
	Env = fl.Env
	// EnvConfig describes an environment to build with NewEnvironment.
	EnvConfig = fl.EnvConfig
	// PartitionConfig selects and parameterizes the non-IID partitioner.
	PartitionConfig = fl.PartitionConfig
	// PartitionKind names a partitioning method.
	PartitionKind = fl.PartitionKind
	// ShardConfig parameterizes the shards partitioner.
	ShardConfig = dataset.ShardConfig
	// SyntheticSpec describes a synthetic classification task.
	SyntheticSpec = dataset.SyntheticSpec
	// History is the per-round metric trace of a run.
	History = fl.History
	// Algorithm is a runnable federated-learning method.
	Algorithm = fl.Algorithm

	// Config parameterizes FedPKD itself (see the internal/core docs for
	// the meaning of each knob; zero values take the paper's defaults).
	Config = core.Config
	// FedPKD is a configured FedPKD run.
	FedPKD = core.FedPKD
)

// Partition kinds.
const (
	PartitionIID       = fl.PartitionIID
	PartitionDirichlet = fl.PartitionDirichlet
	PartitionShards    = fl.PartitionShards
)

// FedPKD ablation and variant switches.
const (
	AggregationVariance = core.AggregationVariance
	AggregationMean     = core.AggregationMean
	FilterByPrototype   = core.FilterByPrototype
	FilterByConfidence  = core.FilterByConfidence
)

// SynthC10 returns the 10-class synthetic task standing in for CIFAR-10.
func SynthC10(seed uint64) SyntheticSpec { return dataset.SynthC10(seed) }

// SynthC100 returns the 100-class synthetic task standing in for CIFAR-100.
func SynthC100(seed uint64) SyntheticSpec { return dataset.SynthC100(seed) }

// NewEnvironment generates data and partitions it across clients.
func NewEnvironment(cfg EnvConfig) (*Env, error) { return fl.NewEnv(cfg) }

// NewFedPKD builds a FedPKD run; unset hyperparameters take the paper's
// defaults (B=32, η=0.001, θ=0.7, ε=δ=γ=0.5, epochs 15/10/40).
func NewFedPKD(cfg Config) (*FedPKD, error) { return core.New(cfg) }

// HeterogeneousFleet returns n client architecture names cycling through
// ResNet11/20/29 (the paper's heterogeneous setting).
func HeterogeneousFleet(n int) []string { return models.HeterogeneousFleet(n) }
