package fedpkd

import (
	"testing"

	"fedpkd/internal/expt"
)

// Each Benchmark below regenerates one of the paper's tables or figures at
// the quick scale (one full regeneration per iteration; at default
// -benchtime these run once). The same experiments at reporting scale run
// via `go run ./cmd/fedbench -exp <id> -scale std`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := expt.Run(id, expt.Quick, 42, expt.RunSpec{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkFig1Motivation regenerates Fig. 1 (FedAvg vs plain KD, IID vs
// non-IID).
func BenchmarkFig1Motivation(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2LogitQuality regenerates Fig. 2 (per-label logit accuracy of
// class-split clients and their average).
func BenchmarkFig2LogitQuality(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3PublicSetSize regenerates Fig. 3 (accuracy and traffic vs
// public-set size).
func BenchmarkFig3PublicSetSize(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig5Homogeneous regenerates Fig. 5 (all seven algorithms across
// the non-IID grid, homogeneous models).
func BenchmarkFig5Homogeneous(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Curves regenerates Fig. 6 (accuracy-vs-round curves, highly
// non-IID).
func BenchmarkFig6Curves(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Heterogeneous regenerates Fig. 7 (heterogeneous fleets).
func BenchmarkFig7Heterogeneous(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable1Communication regenerates Table I (MB to target accuracy).
func BenchmarkTable1Communication(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig8Ablations regenerates Fig. 8 (w/o prototypes, w/o
// filtering).
func BenchmarkFig8Ablations(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9SelectRatio regenerates Fig. 9 (θ sweep).
func BenchmarkFig9SelectRatio(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10LossMix regenerates Fig. 10 (δ sweep).
func BenchmarkFig10LossMix(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkAblationAggregation regenerates the extra design-choice ablation
// of DESIGN.md §4: variance-weighted vs mean logit aggregation.
func BenchmarkAblationAggregation(b *testing.B) { benchExperiment(b, "ablation-aggregation") }

// BenchmarkAblationFilterSignal regenerates the extra design-choice
// ablation of DESIGN.md §4: prototype-distance vs confidence filtering.
func BenchmarkAblationFilterSignal(b *testing.B) { benchExperiment(b, "ablation-filter-signal") }

// BenchmarkExtraFedProto regenerates the extension experiment contrasting
// dual knowledge with prototype-only (FedProto) and logit-only (FedMD)
// exchange.
func BenchmarkExtraFedProto(b *testing.B) { benchExperiment(b, "extra-fedproto") }

// BenchmarkAblationNormalization regenerates the substrate-fidelity
// ablation: BatchNorm vs LayerNorm models under FedAvg weight averaging.
func BenchmarkAblationNormalization(b *testing.B) { benchExperiment(b, "ablation-normalization") }

// BenchmarkFedPKDRound measures one FedPKD communication round in
// isolation (protocol overhead without the experiment grid).
func BenchmarkFedPKDRound(b *testing.B) {
	env, err := NewEnvironment(EnvConfig{
		Spec:       SynthC10(42),
		NumClients: 3,
		TrainSize:  600, TestSize: 300, PublicSize: 200, LocalTestSize: 50,
		Partition: PartitionConfig{Kind: PartitionDirichlet, Alpha: 0.3},
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	algo, err := NewFedPKD(Config{
		Env:                 env,
		ClientPrivateEpochs: 2,
		ClientPublicEpochs:  1,
		ServerEpochs:        3,
		Seed:                42,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := algo.Round(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedPKDRoundInstrumented is BenchmarkFedPKDRound with a Recorder
// attached; comparing the two quantifies the observability overhead.
func BenchmarkFedPKDRoundInstrumented(b *testing.B) {
	env, err := NewEnvironment(EnvConfig{
		Spec:       SynthC10(42),
		NumClients: 3,
		TrainSize:  600, TestSize: 300, PublicSize: 200, LocalTestSize: 50,
		Partition: PartitionConfig{Kind: PartitionDirichlet, Alpha: 0.3},
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	algo, err := NewFedPKD(Config{
		Env:                 env,
		ClientPrivateEpochs: 2,
		ClientPublicEpochs:  1,
		ServerEpochs:        3,
		Seed:                42,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecorder("FedPKD")
	algo.SetRecorder(rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := algo.Round(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(rec.Traces()) == 0 && b.N > 1 {
		b.Fatal("recorder collected no traces")
	}
}

// BenchmarkDistributedRoundTCP measures one FedPKD round over real loopback
// TCP (wire encoding + transport included).
func BenchmarkDistributedRoundTCP(b *testing.B) {
	env, err := NewEnvironment(EnvConfig{
		Spec:       SynthC10(42),
		NumClients: 3,
		TrainSize:  300, TestSize: 200, PublicSize: 100, LocalTestSize: 40,
		Partition: PartitionConfig{Kind: PartitionDirichlet, Alpha: 0.3},
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Env:                 env,
		ClientPrivateEpochs: 1,
		ClientPublicEpochs:  1,
		ServerEpochs:        1,
		Seed:                42,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo, err := NewFedPKD(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunDistributed(algo, 1, DistributedOptions{Mode: ModeTCP}); err != nil {
			b.Fatal(err)
		}
	}
}
