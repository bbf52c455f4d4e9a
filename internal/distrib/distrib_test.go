package distrib

import (
	"testing"

	"fedpkd/internal/baselines"
	"fedpkd/internal/comm"
	"fedpkd/internal/core"
	"fedpkd/internal/dataset"
	"fedpkd/internal/fl"
	"fedpkd/internal/fl/engine"
	"fedpkd/internal/obs"
)

func distribEnv(t *testing.T) *fl.Env {
	t.Helper()
	spec := dataset.SynthC10(17)
	spec.Noise = 0.6
	env, err := fl.NewEnv(fl.EnvConfig{
		Spec:       spec,
		NumClients: 3,
		TrainSize:  300, TestSize: 200, PublicSize: 100, LocalTestSize: 40,
		Partition: fl.PartitionConfig{Kind: fl.PartitionDirichlet, Alpha: 0.5},
		Seed:      17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func distribConfig(env *fl.Env) core.Config {
	return core.Config{
		Env:                 env,
		ClientPrivateEpochs: 2,
		ClientPublicEpochs:  1,
		ServerEpochs:        3,
		Seed:                9,
	}
}

func distribFedPKD(t *testing.T, env *fl.Env) *core.FedPKD {
	t.Helper()
	f, err := core.New(distribConfig(env))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunOverBus(t *testing.T) {
	env := distribEnv(t)
	hist, err := Run(distribFedPKD(t, env), 2, Options{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 2 {
		t.Fatalf("history rounds = %d", hist.Len())
	}
	if hist.FinalServerAcc() <= 0.1 {
		t.Errorf("server accuracy %v no better than chance", hist.FinalServerAcc())
	}
	if hist.TotalMB() <= 0 {
		t.Error("wire traffic not recorded")
	}
	if hist.Algo != "FedPKD(distributed)" {
		t.Errorf("history algo = %q", hist.Algo)
	}
}

// TestRunKeepsRunnerRecorder: a recorder attached to the runner before the
// service is built survives a zero Options.Recorder. NewService used to
// overwrite it with nil, so the run produced no traces.
func TestRunKeepsRunnerRecorder(t *testing.T) {
	algo := distribFedPKD(t, distribEnv(t))
	rec := obs.NewRecorder(algo.Name())
	algo.SetRecorder(rec)
	if _, err := Run(algo, 2, Options{Mode: ModeBus}); err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != 2 {
		t.Fatalf("recorder holds %d round traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.UploadBytes == 0 || tr.ClientTrainNS == nil {
			t.Errorf("round %d trace is missing the server's bytes or the clients' spans: %+v", tr.Round, tr)
		}
	}
}

func TestRunOverTCP(t *testing.T) {
	env := distribEnv(t)
	hist, err := Run(distribFedPKD(t, env), 1, Options{Mode: ModeTCP})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 1 {
		t.Fatalf("history rounds = %d", hist.Len())
	}
	if hist.FinalClientAcc() <= 0 {
		t.Errorf("client accuracy %v", hist.FinalClientAcc())
	}
}

// requireSameAccuracies asserts bit-identical accuracy trajectories. Traffic
// totals legitimately differ: distrib records encoded wire bytes while the
// in-process engine uses the analytic sizes of internal/comm.
func requireSameAccuracies(t *testing.T, distributed, inproc *fl.History) {
	t.Helper()
	if distributed.Len() != inproc.Len() {
		t.Fatalf("round counts differ: %d vs %d", distributed.Len(), inproc.Len())
	}
	for i := range distributed.Rounds {
		d, p := distributed.Rounds[i], inproc.Rounds[i]
		if d.ServerAcc != p.ServerAcc || d.ClientAcc != p.ClientAcc {
			t.Errorf("round %d: distributed (%v, %v) vs in-process (%v, %v)",
				i, d.ServerAcc, d.ClientAcc, p.ServerAcc, p.ClientAcc)
		}
	}
}

func TestRunMatchesInProcessFedPKD(t *testing.T) {
	// Payload values travel as float64, so the distributed run must follow
	// the exact same trajectory as the in-process engine — no tolerance.
	env := distribEnv(t)
	d, err := Run(distribFedPKD(t, env), 2, Options{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(distribConfig(env))
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := f.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)
}

func TestRunMatchesInProcessFedAvg(t *testing.T) {
	env := distribEnv(t)
	cfg := baselines.FedAvgConfig{
		Common:      engine.Config{Env: env, Seed: 9},
		LocalEpochs: 2,
	}
	newRun := func() *baselines.FedAvg {
		f, err := baselines.NewFedAvg(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	d, err := Run(newRun(), 2, Options{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	if d.Algo != "FedAvg(distributed)" {
		t.Errorf("history algo = %q", d.Algo)
	}
	if d.TotalMB() <= 0 {
		t.Error("wire traffic not recorded")
	}
	inproc, err := newRun().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)
}

func TestRunMatchesInProcessFedMD(t *testing.T) {
	env := distribEnv(t)
	cfg := baselines.FedMDConfig{
		Common:        engine.Config{Env: env, Seed: 9},
		LocalEpochs:   2,
		DistillEpochs: 1,
	}
	newRun := func() *baselines.FedMD {
		f, err := baselines.NewFedMD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	d, err := Run(newRun(), 2, Options{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	if d.Algo != "FedMD(distributed)" {
		t.Errorf("history algo = %q", d.Algo)
	}
	inproc, err := newRun().Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)
}

func TestRunValidation(t *testing.T) {
	env := distribEnv(t)
	if _, err := Run(distribFedPKD(t, env), 1, Options{Mode: "carrier-pigeon"}); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestRunMatchesInProcessFedPKDInt8 pins the quantized-wire equivalence
// contract: under the int8 codec both legs run decode(encode(x)) through
// the same section machinery — the in-process engine via Payload.ApplyCodec,
// the distributed runtime via the actual wire — so the accuracy trajectories
// are still bit-identical, and the raw-equivalent ledger columns show real
// upload compression.
func TestRunMatchesInProcessFedPKDInt8(t *testing.T) {
	env := distribEnv(t)
	newRun := func() (*core.FedPKD, *engine.Runner) {
		f, err := core.New(distribConfig(env))
		if err != nil {
			t.Fatal(err)
		}
		r, err := engine.Of(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetCodec(comm.CodecInt8); err != nil {
			t.Fatal(err)
		}
		return f, r
	}
	algoD, runnerD := newRun()
	d, err := Run(algoD, 2, Options{Mode: ModeBus})
	if err != nil {
		t.Fatal(err)
	}
	algoP, _ := newRun()
	inproc, err := algoP.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAccuracies(t, d, inproc)

	var up, rawUp int64
	for _, rt := range runnerD.Ledger().Rounds() {
		up += rt.Upload
		rawUp += rt.RawUpload
	}
	if up == 0 || rawUp == 0 {
		t.Fatalf("ledger upload=%d raw=%d; int8 runs must fill both columns", up, rawUp)
	}
	if rawUp < 3*up {
		t.Errorf("raw-equivalent upload bytes %d vs wire %d: expected at least 3x compression", rawUp, up)
	}
}
