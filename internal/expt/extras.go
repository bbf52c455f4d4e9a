package expt

import (
	"fedpkd/internal/baselines"
	"fedpkd/internal/core"
	"fedpkd/internal/fl"
	"fedpkd/internal/models"
)

// RunAblationNormalization is an extension experiment documenting the
// substrate-fidelity finding of DESIGN.md/EXPERIMENTS.md: FedAvg's non-IID
// degradation on CIFAR ResNets is largely BatchNorm-statistic divergence.
// It compares FedAvg and FedPKD with BatchNorm models against LayerNorm
// models (statistics-free averaging) under the highly non-IID Dirichlet
// setting.
func RunAblationNormalization(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:    "ablation-normalization",
		Title: "BatchNorm vs LayerNorm under weight averaging, α=0.1",
		Cols:  []Col{{"dataset", Text}, {"algorithm", Text}, {"norm", Text}, {"S_acc", Acc}},
	}
	setting := Setting{Label: "α=0.1", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.1}}
	for _, task := range []Task{TaskC10} {
		for _, norm := range []struct{ label, client, server string }{
			{"batch", "ResNet20", "ResNet56"},
			{"layer", "ResNet20-LN", "ResNet56-LN"},
		} {
			env, err := NewEnv(task, setting, sc, seed)
			if err != nil {
				return nil, err
			}
			avg, err := baselines.NewFedAvg(baselines.FedAvgConfig{
				Common: baselines.CommonConfig{Env: env, Seed: seed},
				Arch:   norm.client, LocalEpochs: sc.LocalEpochs,
			})
			if err != nil {
				return nil, err
			}
			archs := make([]string, env.Cfg.NumClients)
			for i := range archs {
				archs[i] = norm.client
			}
			cfg := fedPKDConfig(env, sc, seed, archs)
			cfg.ServerArch = norm.server
			pkd, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			for _, algo := range []fl.Algorithm{avg, pkd} {
				hist, err := algo.Run(sc.Rounds)
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), algo.Name(), norm.label, hist.FinalServerAcc())
			}
		}
	}
	return res, nil
}

// RunExtraFedProto is an extension experiment beyond the paper's grid: it
// contrasts FedPKD's dual knowledge (logits + prototypes) with FedProto's
// prototype-only exchange and FedMD's logit-only exchange under the highly
// non-IID settings, on the client-accuracy metric all three support.
func RunExtraFedProto(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	res := &Result{
		ID:    "extra-fedproto",
		Title: "Dual knowledge vs prototype-only (FedProto) vs logit-only (FedMD), highly non-IID",
		Cols:  []Col{{"dataset", Text}, {"setting", Text}, {"algorithm", Text}, {"C_acc", Acc}, {"total_MB", MB}},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range SettingsFor(task, sc, true) {
			env, err := NewEnv(task, setting, sc, seed)
			if err != nil {
				return nil, err
			}
			common := baselines.CommonConfig{Env: env, Seed: seed}

			pkd, err := core.New(fedPKDConfig(env, sc, seed, models.HomogeneousFleet(env.Cfg.NumClients)))
			if err != nil {
				return nil, err
			}
			fp, err := baselines.NewFedProto(baselines.FedProtoConfig{Common: common, LocalEpochs: sc.LocalEpochs})
			if err != nil {
				return nil, err
			}
			md, err := baselines.NewFedMD(baselines.FedMDConfig{Common: common, LocalEpochs: sc.LocalEpochs, DistillEpochs: sc.DistillEpochs})
			if err != nil {
				return nil, err
			}
			for _, algo := range []fl.Algorithm{pkd, fp, md} {
				hist, err := algo.Run(sc.Rounds)
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, algo.Name(), hist.FinalClientAcc(), hist.TotalMB())
			}
		}
	}
	return res, nil
}
