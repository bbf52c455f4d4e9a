package baselines

import (
	"testing"

	"fedpkd/internal/dataset"
	"fedpkd/internal/fl"
	"fedpkd/internal/kd"
	"fedpkd/internal/models"
	"fedpkd/internal/tensor"
)

func tinyEnv(t *testing.T) *fl.Env {
	t.Helper()
	// Ease the task at this tiny scale: these tests validate the protocol
	// mechanics, not the benchmark difficulty bands.
	spec := dataset.SynthC10(13)
	spec.Noise = 0.6
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       spec,
		NumClients: 3,
		TrainSize:  360, TestSize: 200, PublicSize: 120,
		LocalTestSize: 40,
		Partition:     fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5},
		Seed:          31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func tinyCommon(env *fl.Env) CommonConfig {
	return CommonConfig{Env: env, Seed: 5}
}

func TestFedAvgLearnsAndAccounts(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewFedAvg(FedAvgConfig{Common: tinyCommon(env), LocalEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := f.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Algo != "FedAvg" {
		t.Errorf("name = %s", hist.Algo)
	}
	if hist.FinalServerAcc() < 0.3 {
		t.Errorf("FedAvg server accuracy %v after 3 rounds", hist.FinalServerAcc())
	}
	if hist.FinalClientAcc() < 0.3 {
		t.Errorf("FedAvg client accuracy %v", hist.FinalClientAcc())
	}
	// Traffic: 3 rounds × 3 clients × 2 directions × model size.
	wantBytes := int64(3 * 3 * 2 * 4 * f.h.evalNet.ParamCount())
	if f.Ledger().TotalBytes() != wantBytes {
		t.Errorf("FedAvg traffic %d, want %d", f.Ledger().TotalBytes(), wantBytes)
	}
}

func TestFedProxName(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewFedProx(FedAvgConfig{Common: tinyCommon(env), LocalEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "FedProx" {
		t.Errorf("name = %s", f.Name())
	}
	if f.h.cfg.Mu != 0.01 {
		t.Errorf("default mu = %v", f.h.cfg.Mu)
	}
	hist, err := f.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalServerAcc() < 0.2 {
		t.Errorf("FedProx server accuracy %v", hist.FinalServerAcc())
	}
}

func TestFedMDLearnsWithoutServer(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewFedMD(FedMDConfig{Common: tinyCommon(env), LocalEpochs: 3, DistillEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := f.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalServerAcc() != -1 {
		t.Error("FedMD must not report a server accuracy")
	}
	if hist.FinalClientAcc() < 0.3 {
		t.Errorf("FedMD client accuracy %v", hist.FinalClientAcc())
	}
	if f.Ledger().TotalBytes() == 0 {
		t.Error("FedMD must record logit traffic")
	}
}

func TestDSFLUsesERA(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewDSFL(FedMDConfig{Common: tinyCommon(env), LocalEpochs: 2, DistillEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "DS-FL" {
		t.Errorf("name = %s", f.Name())
	}
	if f.h.cfg.ERATemperature != 0.5 {
		t.Errorf("default ERA temperature = %v", f.h.cfg.ERATemperature)
	}
	hist, err := f.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalClientAcc() < 0.25 {
		t.Errorf("DS-FL client accuracy %v", hist.FinalClientAcc())
	}
}

func TestFedMDHeterogeneous(t *testing.T) {
	env := tinyEnv(t)
	cfg := FedMDConfig{Common: tinyCommon(env), LocalEpochs: 2, DistillEpochs: 2,
		Archs: models.HeterogeneousFleet(3)}
	f, err := NewFedMD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(1); err != nil {
		t.Fatal(err)
	}
}

func TestFedDFLearns(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewFedDF(FedDFConfig{Common: tinyCommon(env), LocalEpochs: 3, ServerEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := f.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalServerAcc() < 0.3 {
		t.Errorf("FedDF server accuracy %v", hist.FinalServerAcc())
	}
	if hist.FinalClientAcc() != -1 {
		t.Error("FedDF must not report a client accuracy")
	}
	// FedDF moves whole models, so per-round traffic must exceed FedMD's
	// logit traffic for the same setting.
	md, err := NewFedMD(FedMDConfig{Common: tinyCommon(env), LocalEpochs: 1, DistillEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := md.Run(1); err != nil {
		t.Fatal(err)
	}
	dfPerRound := f.Ledger().TotalBytes() / 3
	if dfPerRound <= md.Ledger().TotalBytes() {
		t.Errorf("FedDF per-round traffic %d should exceed FedMD round traffic %d", dfPerRound, md.Ledger().TotalBytes())
	}
}

func TestFedETLearns(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewFedET(FedETConfig{Common: tinyCommon(env), LocalEpochs: 3, ServerEpochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := f.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalServerAcc() < 0.25 {
		t.Errorf("FedET server accuracy %v", hist.FinalServerAcc())
	}
}

func TestVanillaKDLearns(t *testing.T) {
	env := tinyEnv(t)
	f, err := NewVanillaKD(VanillaKDConfig{Common: tinyCommon(env), LocalEpochs: 3, ServerEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := f.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "KD" {
		t.Errorf("name = %s", f.Name())
	}
	if hist.FinalServerAcc() < 0.25 {
		t.Errorf("KD server accuracy %v", hist.FinalServerAcc())
	}
	// The clients' equally averaged public-set logits, the quantity whose
	// quality Figs. 2-3 measure, cover the public set.
	clientLogits := make([]*tensor.Matrix, len(f.h.clients))
	for c, net := range f.h.clients {
		clientLogits[c] = net.Logits(env.Splits.Public.X)
	}
	if agg := kd.AggregateMean(clientLogits); agg.Rows != env.Splits.Public.Len() {
		t.Errorf("aggregated logits rows = %d", agg.Rows)
	}
}

func TestBaselinesRequirePublicSet(t *testing.T) {
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       dataset.SynthC10(14),
		NumClients: 2,
		TrainSize:  200, TestSize: 100, PublicSize: 0,
		Partition: fl.PartitionConfig{Kind: fl.PartitionIID},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	common := CommonConfig{Env: env, Seed: 1}
	if _, err := NewFedMD(FedMDConfig{Common: common}); err == nil {
		t.Error("FedMD without public set should error")
	}
	if _, err := NewFedDF(FedDFConfig{Common: common}); err == nil {
		t.Error("FedDF without public set should error")
	}
	if _, err := NewFedET(FedETConfig{Common: common}); err == nil {
		t.Error("FedET without public set should error")
	}
	if _, err := NewVanillaKD(VanillaKDConfig{Common: common}); err == nil {
		t.Error("VanillaKD without public set should error")
	}
	// FedAvg needs no public set.
	if _, err := NewFedAvg(FedAvgConfig{Common: common, LocalEpochs: 1}); err != nil {
		t.Errorf("FedAvg should not need a public set: %v", err)
	}
}

func TestCommonConfigValidation(t *testing.T) {
	c := CommonConfig{}
	if err := c.FillDefaults(); err == nil {
		t.Error("missing Env should error")
	}
	env := tinyEnv(t)
	c = CommonConfig{Env: env}
	if err := c.FillDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.BatchSize != 32 || c.LR != 0.001 {
		t.Errorf("defaults = %d/%v", c.BatchSize, c.LR)
	}
}

func TestBuildFleetArchMismatch(t *testing.T) {
	env := tinyEnv(t)
	if _, _, err := buildFleet(CommonConfig{Env: env, BatchSize: 32, LR: 0.001}, []string{"ResNet20"}); err == nil {
		t.Error("wrong fleet size should error")
	}
}
