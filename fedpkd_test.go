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

// facadeScale is ScaleQuick cut to one epoch per phase, so the facade tests
// build every algorithm on facadeEnv and run a round in milliseconds.
func facadeScale() ExperimentScale {
	sc := ScaleQuick
	sc.PKDPrivateEpochs, sc.PKDPublicEpochs, sc.PKDServerEpochs = 1, 1, 1
	sc.LocalEpochs, sc.DistillEpochs = 1, 1
	sc.FedDFLocalEpochs, sc.FedDFServerEpochs = 1, 1
	sc.FedETServerEpochs, sc.VanillaServerEpoch = 1, 1
	return sc
}

func TestFacadeBaselines(t *testing.T) {
	env := facadeEnv(t)
	for _, name := range Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			algo, err := BuildAlgorithm(name, env, facadeScale(), 1, false, AlgoOptions{})
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
	fleet := HeterogeneousFleet(4)
	if len(fleet) != 4 || fleet[0] == fleet[1] || fleet[1] == fleet[2] || fleet[3] != fleet[0] {
		t.Errorf("HeterogeneousFleet(4) = %v, want a 4-client cycle of three architectures", fleet)
	}
	env := facadeEnv(t)
	if _, err := BuildAlgorithm("FedMD", env, facadeScale(), 1, true, AlgoOptions{}); err != nil {
		t.Errorf("FedMD on a heterogeneous fleet: %v", err)
	}
	if _, err := BuildAlgorithm("FedAvg", env, facadeScale(), 1, true, AlgoOptions{}); err == nil {
		t.Error("FedAvg accepted a heterogeneous fleet")
	}
}

func TestFacadeExperiments(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Algorithms() {
		if seen[name] {
			t.Errorf("Algorithms lists %q twice", name)
		}
		seen[name] = true
	}
	if len(seen) != 9 {
		t.Errorf("Algorithms lists %d names, want FedPKD and its eight comparison methods", len(seen))
	}
	if ScaleQuick.Name != "quick" || ScaleStd.Name != "std" || ScaleFull.Name != "full" {
		t.Errorf("scale names = %q/%q/%q", ScaleQuick.Name, ScaleStd.Name, ScaleFull.Name)
	}
	env := facadeEnv(t)
	if _, err := BuildAlgorithm("bogus", env, facadeScale(), 1, false, AlgoOptions{}); err == nil {
		t.Error("unknown algorithm should error")
	}
	algo, err := BuildAlgorithm("FedAvg", env, facadeScale(), 1, false, AlgoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Configure(algo, RunSpec{Codec: "bogus"}); err == nil {
		t.Error("unknown codec should error")
	}
}

// TestFacadeTransportRoundtrip runs the same algorithm over the in-memory bus
// and in-process: the payloads cross the wire as float64, so the accuracy
// trajectories must match exactly; only the ledger differs (encoded wire
// bytes instead of analytic sizes).
func TestFacadeTransportRoundtrip(t *testing.T) {
	env := facadeEnv(t)
	build := func() Algorithm {
		algo, err := NewFedMD(FedMDConfig{Common: CommonConfig{Env: env, Seed: 1}, LocalEpochs: 1, DistillEpochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return algo
	}
	wire, err := RunDistributed(build(), 2, DistributedOptions{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	local, err := build().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Len() != local.Len() {
		t.Fatalf("rounds: bus %d, in-process %d", wire.Len(), local.Len())
	}
	for i, w := range wire.Rounds {
		l := local.Rounds[i]
		if w.ServerAcc != l.ServerAcc || w.ClientAcc != l.ClientAcc {
			t.Errorf("round %d: bus (%v, %v), in-process (%v, %v)", i, w.ServerAcc, w.ClientAcc, l.ServerAcc, l.ClientAcc)
		}
	}
	if wire.TotalMB() <= 0 {
		t.Error("bus run recorded no wire traffic")
	}
}
