package expt

import (
	"strings"
	"testing"
)

// These smoke tests run the heavier experiment runners end to end at micro
// scale, checking row structure rather than accuracy values.

func TestRunFig5MicroStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("micro fig5 still trains dozens of models")
	}
	res, err := RunFig5(microScale, 3, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 4 settings × 7 algorithms.
	if len(res.Rows) != 56 {
		t.Fatalf("fig5 rows = %d, want 56", len(res.Rows))
	}
	perAlgo := map[string]int{}
	for _, row := range res.Rows {
		algo := row[2].Text
		perAlgo[algo]++
		// FedMD/DS-FL have no server model; FedDF reports no client metric.
		switch algo {
		case AlgoFedMD, AlgoDSFL:
			if row[3].Num >= 0 {
				t.Errorf("%s must report no server accuracy, got %v", algo, row[3].Num)
			}
		case AlgoFedDF:
			if row[4].Num >= 0 {
				t.Errorf("FedDF must report no client accuracy, got %v", row[4].Num)
			}
		}
	}
	for _, algo := range AllAlgos {
		if perAlgo[algo] != 8 {
			t.Errorf("%s appears %d times, want 8", algo, perAlgo[algo])
		}
	}
	checkClaims(t, res)
}

func TestRunTable1MicroStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("micro table1 still trains dozens of models")
	}
	res, err := runTable1(microScale, 3, RunSpec{}, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 weak settings × 7 algorithms.
	if len(res.Rows) != 28 {
		t.Fatalf("table1 rows = %d, want 28", len(res.Rows))
	}
	// With near-zero targets, algorithms with the metric must report a
	// number, not NotReached.
	for _, row := range res.Rows {
		if row[4].Num == NotReached && row[2].Text != AlgoFedMD && row[2].Text != AlgoDSFL {
			t.Errorf("%s did not reach a ~0 target: %v", row[2].Text, row)
		}
	}
	checkClaims(t, res)
}

func TestRunFig8MicroStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("micro fig8 still trains models")
	}
	res, err := RunFig8(microScale, 3, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 settings × 3 variants.
	if len(res.Rows) != 12 {
		t.Fatalf("fig8 rows = %d, want 12", len(res.Rows))
	}
	variants := map[string]bool{}
	for _, row := range res.Rows {
		variants[row[2].Text] = true
	}
	for _, want := range []string{"FedPKD", "w/o Pro", "w/o D.F."} {
		if !variants[want] {
			t.Errorf("missing ablation variant %q", want)
		}
	}
	checkClaims(t, res)
}

func TestRunExtraFedProtoMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	res, err := RunExtraFedProto(microScale, 3, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 settings × 3 algorithms.
	if len(res.Rows) != 12 {
		t.Fatalf("extra-fedproto rows = %d, want 12", len(res.Rows))
	}
}

func TestRunCompressionMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models over both transport legs")
	}
	res, err := RunCompression(microScale, 5, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// One row per codec; the runner's contracts (predicted-vs-wire
	// bit-equivalence, int8 >= 4x upload compression, 0.5pp accuracy
	// budget) are claims, and none may be violated.
	if len(res.Rows) != 3 {
		t.Fatalf("compression rows = %d, want 3", len(res.Rows))
	}
	checkClaims(t, res)
	if v := res.Violations(); len(v) > 0 {
		t.Errorf("contract claims violated: %v", v)
	}
	codecs := map[string]bool{}
	for _, row := range res.Rows {
		codecs[row[0].Text] = true
	}
	for _, want := range []string{"float64raw", "float32", "int8"} {
		if !codecs[want] {
			t.Errorf("missing codec row %q", want)
		}
	}
	// float64raw must not report raw-equivalent bytes (it IS the raw form).
	for _, row := range res.Rows {
		if row[0].Text == "float64raw" && row[5].Num != 0 {
			t.Errorf("float64raw raw_up_MB = %v, want 0", row[5].Num)
		}
	}
}

func TestRunAblationNormalizationMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	res, err := RunAblationNormalization(microScale, 3, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 norms × 2 algorithms.
	if len(res.Rows) != 4 {
		t.Fatalf("ablation-normalization rows = %d, want 4", len(res.Rows))
	}
	if !strings.Contains(res.Title, "α=0.1") {
		t.Errorf("title = %q", res.Title)
	}
}

func TestRunAsyncMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("trains both legs over a seed ensemble")
	}
	res, err := RunAsync(microScale, 1, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Two rows (sync, async); the runner's contracts (1pp ensemble
	// fidelity budget, async wall-clock < sync barrier wall-clock) are
	// claims, and none may be violated.
	if len(res.Rows) != 2 {
		t.Fatalf("async rows = %d, want 2", len(res.Rows))
	}
	checkClaims(t, res)
	if v := res.Violations(); len(v) > 0 {
		t.Errorf("contract claims violated: %v", v)
	}
	if res.Rows[0][0].Text != "sync" || res.Rows[1][0].Text != "async" {
		t.Fatalf("async row modes = %s/%s", res.Rows[0][0].Text, res.Rows[1][0].Text)
	}
	if res.Rows[1][8].Num <= 1 {
		t.Errorf("async speedup column reads %v, expected a real speedup", res.Rows[1][8].Num)
	}
	if len(res.Series["async_S_acc"]) == 0 || len(res.Series["sync_S_acc"]) == 0 {
		t.Error("missing accuracy series")
	}
}
