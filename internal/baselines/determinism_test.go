package baselines

import (
	"encoding/json"
	"testing"

	"fedpkd/internal/fl"
	"fedpkd/internal/obs"
)

// fedAvgHistory runs a fresh fixed-seed FedAvg and returns the serialized
// history plus the algorithm (for ledger access).
func fedAvgHistory(t *testing.T, env *fl.Env, rounds int, rec *obs.Recorder) ([]byte, *FedAvg) {
	t.Helper()
	f, err := NewFedAvg(FedAvgConfig{Common: tinyCommon(env), LocalEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.SetRecorder(rec)
	hist, err := f.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(hist)
	if err != nil {
		t.Fatal(err)
	}
	return b, f
}

// TestFedAvgDeterministic asserts two fixed-seed FedAvg runs produce
// byte-identical histories despite concurrent client training.
func TestFedAvgDeterministic(t *testing.T) {
	env := tinyEnv(t)
	a, _ := fedAvgHistory(t, env, 2, nil)
	b, _ := fedAvgHistory(t, env, 2, nil)
	if string(a) != string(b) {
		t.Errorf("two fixed-seed FedAvg runs diverged:\n run1: %s\n run2: %s", a, b)
	}
}

// TestBaselineRecorderMatchesLedger asserts the recorder copies the
// ledger's per-round byte accounting for a baseline algorithm too.
func TestBaselineRecorderMatchesLedger(t *testing.T) {
	env := tinyEnv(t)
	rec := obs.NewRecorder("FedAvg")
	const rounds = 2
	_, f := fedAvgHistory(t, env, rounds, rec)

	traces := rec.Traces()
	if len(traces) != rounds {
		t.Fatalf("got %d traces for %d rounds", len(traces), rounds)
	}
	for i, lr := range f.Ledger().Rounds() {
		if traces[i].UploadBytes != lr.Upload || traces[i].DownloadBytes != lr.Download {
			t.Errorf("round %d: trace ↑%d ↓%d, ledger ↑%d ↓%d",
				lr.Round, traces[i].UploadBytes, traces[i].DownloadBytes, lr.Upload, lr.Download)
		}
	}
}
