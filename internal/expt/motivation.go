package expt

import (
	"fedpkd/internal/comm"
	"fedpkd/internal/fl"
	"fedpkd/internal/kd"
	"fedpkd/internal/models"
	"fedpkd/internal/nn"
	"fedpkd/internal/stats"
	"fedpkd/internal/tensor"
)

// RunFig1 reproduces the motivating Fig. 1: server-model accuracy of FedAvg
// vs the plain KD-based method, in IID and non-IID (Dirichlet α=0.3)
// settings, on both tasks.
func RunFig1(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	res := &Result{
		ID:    "fig1",
		Title: "Server accuracy: FedAvg vs plain KD, IID vs non-IID (α=0.3)",
		Cols:  []Col{{"dataset", Text}, {"setting", Text}, {"algorithm", Text}, {"S_acc", Acc}},
	}
	settings := []Setting{
		{Label: "IID", Partition: fl.PartitionConfig{Kind: fl.PartitionIID}},
		{Label: "non-IID(α=0.3)", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.3}},
	}
	for _, task := range []Task{TaskC10, TaskC100} {
		for _, setting := range settings {
			for _, algo := range []string{AlgoFedAvg, AlgoKD} {
				hist, err := RunOne(algo, task, setting, sc, seed, false, spec)
				if err != nil {
					return nil, err
				}
				res.AddRow(string(task), setting.Label, algo, hist.FinalServerAcc())
			}
		}
	}
	return decided(res), nil
}

// RunFig2 reproduces Fig. 2: two clients trained on disjoint class halves;
// per-label logit accuracy of each client and of the equal-average
// aggregation on the public set.
func RunFig2(sc Scale, seed uint64, _ RunSpec) (*Result, error) {
	task := TaskC10
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       task.Spec(seed),
		NumClients: 2,
		TrainSize:  sc.TrainSize, TestSize: sc.TestSize, PublicSize: sc.PublicSize,
		LocalTestSize: sc.LocalTestSize,
		// Placeholder partition; replaced below with the paper's class split.
		Partition: fl.PartitionConfig{Kind: fl.PartitionIID},
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	// Client 1: classes 0-4; client 2: classes 5-9 (exactly Fig. 2's setup).
	byClass := env.Splits.Train.ClassIndices()
	var part0, part1 []int
	for class, idx := range byClass {
		if class < 5 {
			part0 = append(part0, idx...)
		} else {
			part1 = append(part1, idx...)
		}
	}
	clientData := []struct {
		name string
		idx  []int
	}{
		{"client1 (classes 0-4)", part0},
		{"client2 (classes 5-9)", part1},
	}

	publicX := env.Splits.Public.X
	trueLabels := env.Splits.PublicLabels
	clientLogits := make([]*tensor.Matrix, 2)
	perLabel := make([][]float64, 2)
	for c, cd := range clientData {
		net, err := models.BuildNamed(stats.Split(seed, uint64(c)+100), "ResNet20", env.InputDim(), env.Classes())
		if err != nil {
			return nil, err
		}
		d := env.Splits.Train.Subset(cd.idx)
		fl.TrainCE(net, nn.NewAdam(0.001), d, stats.Split(seed, uint64(c)+200), sc.LocalEpochs*2, 32)
		clientLogits[c] = net.Logits(publicX)
		perLabel[c] = kd.PerLabelAccuracy(clientLogits[c], trueLabels, env.Classes())
	}
	aggregated := kd.AggregateMean(clientLogits)
	aggPerLabel := kd.PerLabelAccuracy(aggregated, trueLabels, env.Classes())

	res := &Result{
		ID:    "fig2",
		Title: "Per-label logit accuracy of class-split clients and their equal average",
		Cols:  []Col{{"label", Count}, {"client1_acc", Acc}, {"client2_acc", Acc}, {"aggregated_acc", Acc}},
	}
	for label := 0; label < env.Classes(); label++ {
		res.AddRow(label, perLabel[0][label], perLabel[1][label], aggPerLabel[label])
	}
	res.AddRow("overall",
		kd.LogitsAccuracy(clientLogits[0], trueLabels),
		kd.LogitsAccuracy(clientLogits[1], trueLabels),
		kd.LogitsAccuracy(aggregated, trueLabels))
	return decided(res), nil
}

// RunFig3 reproduces Fig. 3: plain-KD server accuracy and per-client
// communication overhead as the public-set size grows, against the
// model-update size reference line.
func RunFig3(sc Scale, seed uint64, spec RunSpec) (*Result, error) {
	task := TaskC10
	res := &Result{
		ID:    "fig3",
		Title: "Plain-KD server accuracy and per-client traffic vs public-set size",
		Cols: []Col{{"public_size", Count}, {"S_acc", Acc},
			{"logits_MB_per_client_per_round", MB}, {"model_update_MB", MB}},
	}
	// Reference: one ResNet20 model update.
	refNet, err := models.BuildNamed(stats.NewRNG(1), "ResNet20", task.Spec(seed).InputDim, task.Classes())
	if err != nil {
		return nil, err
	}
	modelMB := float64(comm.ModelBytes(refNet.ParamCount())) / comm.MB

	for _, factor := range []float64{0.25, 0.5, 1, 2} {
		publicSize := int(float64(sc.PublicSize) * factor)
		scCopy := sc
		scCopy.PublicSize = publicSize
		setting := Setting{Label: "α=0.3", Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.3}}
		hist, err := RunOne(AlgoKD, task, setting, scCopy, seed, false, spec)
		if err != nil {
			return nil, err
		}
		res.AddRow(publicSize, hist.FinalServerAcc(), fig3LogitsMB(publicSize, task.Classes()), modelMB)
	}
	return decided(res), nil
}

// fig3LogitsMB is Fig. 3's per-client logit traffic for one round: the
// float32 analytic size of the public set's logit block, whatever codec the
// run ships it under, so it compares with the float32 model-update line.
func fig3LogitsMB(publicSize, classes int) float64 {
	return float64(comm.LogitsBytes(publicSize, classes)) / comm.MB
}
