package fedpkd

import (
	"testing"
)

// easySpec eases the synthetic task for fast facade tests.
func easySpec(seed uint64) SyntheticSpec {
	spec := SynthC10(seed)
	spec.Noise = 0.6
	return spec
}

func facadeEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnvironment(EnvConfig{
		Spec:       easySpec(7),
		NumClients: 2,
		TrainSize:  240, TestSize: 160, PublicSize: 80, LocalTestSize: 30,
		Partition: PartitionConfig{Kind: PartitionDirichlet, Alpha: 0.5},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestFacadeFedPKD(t *testing.T) {
	env := facadeEnv(t)
	algo, err := NewFedPKD(Config{
		Env:                 env,
		ClientPrivateEpochs: 2,
		ClientPublicEpochs:  1,
		ServerEpochs:        2,
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := algo.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 1 || hist.Algo != "FedPKD" {
		t.Errorf("history = %+v", hist)
	}
}

func TestFacadeBaselines(t *testing.T) {
	env := facadeEnv(t)
	common := CommonConfig{Env: env, Seed: 1}
	builders := map[string]func() (Algorithm, error){
		"FedAvg":  func() (Algorithm, error) { return NewFedAvg(FedAvgConfig{Common: common, LocalEpochs: 1}) },
		"FedProx": func() (Algorithm, error) { return NewFedProx(FedAvgConfig{Common: common, LocalEpochs: 1}) },
		"FedMD": func() (Algorithm, error) {
			return NewFedMD(FedMDConfig{Common: common, LocalEpochs: 1, DistillEpochs: 1})
		},
		"DS-FL": func() (Algorithm, error) {
			return NewDSFL(FedMDConfig{Common: common, LocalEpochs: 1, DistillEpochs: 1})
		},
		"FedDF": func() (Algorithm, error) {
			return NewFedDF(FedDFConfig{Common: common, LocalEpochs: 1, ServerEpochs: 1})
		},
		"FedET": func() (Algorithm, error) {
			return NewFedET(FedETConfig{Common: common, LocalEpochs: 1, ServerEpochs: 1})
		},
		"KD": func() (Algorithm, error) {
			return NewVanillaKD(VanillaKDConfig{Common: common, LocalEpochs: 1, ServerEpochs: 1})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			algo, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if algo.Name() != name {
				t.Errorf("Name = %q, want %q", algo.Name(), name)
			}
			if _, err := algo.Run(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFacadeFleets(t *testing.T) {
	if len(HomogeneousFleet(3)) != 3 || len(HeterogeneousFleet(4)) != 4 {
		t.Error("fleet sizes wrong")
	}
	if len(ModelNames()) < 4 {
		t.Error("model registry too small")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) < 10 {
		t.Errorf("only %d experiments registered", len(ids))
	}
	if _, err := RunExperiment("bogus", ScaleQuick, 1, RunSpec{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestFacadeTransportRoundtrip(t *testing.T) {
	bus := NewBus(1, 1)
	defer bus.Close()
	payload, err := EncodePayload(RoundUpload{Client: 2, HasPayload: true, Payload: WirePayload{Params: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.ClientConn(0).Send(&Envelope{Kind: KindUpload, From: 0, To: -1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	e, err := bus.ServerConn().Recv()
	if err != nil {
		t.Fatal(err)
	}
	var ru RoundUpload
	if err := DecodePayload(e.Payload, &ru); err != nil {
		t.Fatal(err)
	}
	if ru.Client != 2 {
		t.Errorf("decoded = %+v", ru)
	}
}
