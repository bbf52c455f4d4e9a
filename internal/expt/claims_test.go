package expt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedpkd/internal/comm"
	"fedpkd/internal/models"
	"fedpkd/internal/stats"
)

// updateGoldens rewrites testdata/claims from the current implementation.
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/claims from the current implementation")

// checkClaims compares a micro run's claim table (id, verdict, margin) with
// testdata/claims/<experiment>.txt.
func checkClaims(t *testing.T, res *Result) {
	t.Helper()
	var b strings.Builder
	for _, c := range res.Claims {
		fmt.Fprintf(&b, "%s\t%s\t%+.4g\n", c.ID, c.Verdict(), c.Margin)
	}
	path := filepath.Join("testdata", "claims", res.ID+".txt")
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-goldens to create it)", err)
	}
	if b.String() != string(want) {
		t.Errorf("%s claims diverged from %s:\ngot:\n%swant:\n%s", res.ID, path, b.String(), want)
	}
}

// TestClaimVerdict pins the one verdict rule at its edges.
func TestClaimVerdict(t *testing.T) {
	for _, c := range []struct {
		margin, budget float64
		want           Verdict
	}{
		{0, 0, Reproduced}, {0.3, 0, Reproduced}, {-0.01, 0.01, WithinNoise},
		{-0.010001, 0.01, Violated}, {-1e-9, 0, Violated}, {math.NaN(), 1, Violated},
		{math.Inf(1), 0, Reproduced}, {math.Inf(-1), 1, Violated},
	} {
		if got := (Claim{Margin: c.margin, Budget: c.budget}).Verdict(); got != c.want {
			t.Errorf("margin %v budget %v: %s, want %s", c.margin, c.budget, got, c.want)
		}
	}
}

// TestContractClaimBoundaries feeds each of the sixteen contract claims the
// edge values of the check it replaced. trips is that check, written as the
// runner wrote it; the claim must be violated exactly when it trips.
func TestContractClaimBoundaries(t *testing.T) {
	below := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	// The old checks, on run-time floats (Go folds constant expressions
	// exactly, which float64 arithmetic does not).
	trails := func(a, b, budget float64) bool { return a-b > budget }
	short := func(acc, f64 float64) bool { return acc < f64-0.005 }
	f64, small := 0.5, 0.009
	for _, c := range []struct {
		claim Claim
		trips bool
		want  Verdict
	}{
		// async: meanS-meanA > 0.01; asyncClock == 0 || asyncClock >= syncClock.
		{asyncFidelity(0.01, 0), trails(0.01, 0, 0.01), WithinNoise},
		{asyncFidelity(below(0.02), 0.01), trails(below(0.02), 0.01, 0.01), WithinNoise},
		{asyncFidelity(0.0100001, 0), trails(0.0100001, 0, 0.01), Violated},
		{asyncFidelity(0.3, 0.31), trails(0.3, 0.31, 0.01), Reproduced},
		{asyncLatency(100, 100), 100 == 0 || 100 >= 100, Violated},
		{asyncLatency(100, 99), 99 == 0 || 99 >= 100, Reproduced},
		{asyncLatency(100, 0), true, Violated},
		{asyncLatency(0, 0), true, Violated},
		// churn: !bytes.Equal; meanF-meanC > 0.05.
		{churnReplay(true), false, Reproduced},
		{churnReplay(false), true, Violated},
		{churnFidelity(0.05, 0), trails(0.05, 0, 0.05), WithinNoise},
		{churnFidelity(0.0500001, 0), trails(0.0500001, 0, 0.05), Violated},
		{churnFidelity(0.2, 0.2), trails(0.2, 0.2, 0.05), Reproduced},
		// compression: round counts differ; a round diverged; raw bytes == 0;
		// ratio < 4; meanAcc < meanAccF64-0.005.
		{compressionRounds(comm.CodecInt8, 3, 3), 3 != 3, Reproduced},
		{compressionRounds(comm.CodecInt8, 3, 2), 3 != 2, Violated},
		{compressionTrajectory(comm.CodecFloat32, true), false, Reproduced},
		{compressionTrajectory(comm.CodecFloat32, false), true, Violated},
		{compressionRawRecorded(comm.CodecInt8, 0), true, Violated},
		{compressionRawRecorded(comm.CodecInt8, 1), false, Reproduced},
		{compressionRatio(4), 4 < 4, Reproduced},
		{compressionRatio(below(4)), below(4) < 4, Violated},
		{compressionFidelity(comm.CodecInt8, f64-0.005, f64), short(f64-0.005, f64), WithinNoise},
		{compressionFidelity(comm.CodecInt8, below(f64-0.005), f64), short(below(f64-0.005), f64), Violated},
		{compressionFidelity(comm.CodecInt8, small-0.005, small), short(small-0.005, small), WithinNoise},
		{compressionFidelity(comm.CodecInt8, below(small-0.005), small), short(below(small-0.005), small), Violated},
		{compressionFidelity(comm.CodecFloat32, f64, f64), short(f64, f64), Reproduced},
		// hierarchy: !bytes.Equal; up == 0 || down == 0;
		// heap100 <= 0 || heap1000 <= 3*heap100.
		{hierarchyIdentical("bus", true), false, Reproduced},
		{hierarchyIdentical("tcp", false), true, Violated},
		{hierarchyTierBilled("bus", 0, 5), true, Violated},
		{hierarchyTierBilled("bus", 5, 0), true, Violated},
		{hierarchyTierBilled("bus", 1, 1), false, Reproduced},
		{hierarchyHeap(100, 300), 100 <= 0 || 300 <= 3*100, Violated},
		{hierarchyHeap(100, 301), 100 <= 0 || 301 <= 3*100, Reproduced},
		{hierarchyHeap(0, 5), true, Violated},
		// treefaults: !bytes.Equal twice; up1 != up2 || down1 != down2;
		// DegradedCount() == 0 || len(lost) == 0.
		{treefaultsStrict(true), false, Reproduced},
		{treefaultsStrict(false), true, Violated},
		{treefaultsReplay("tcp", true), false, Reproduced},
		{treefaultsReplay("tcp", false), true, Violated},
		{treefaultsTierReplay("bus", 7, 7, 3, 3), false, Reproduced},
		{treefaultsTierReplay("bus", 7, 8, 3, 3), true, Violated},
		{treefaultsTierReplay("bus", 7, 7, 3, 4), true, Violated},
		{treefaultsDegraded("bus", 0, 1), true, Violated},
		{treefaultsDegraded("bus", 1, 0), true, Violated},
		{treefaultsDegraded("bus", 1, 1), false, Reproduced},
	} {
		got := c.claim.Verdict()
		if got != c.want || (got == Violated) != c.trips {
			t.Errorf("%s margin %v budget %v: %s, want %s (old check tripped: %v)",
				c.claim.ID, c.claim.Margin, c.claim.Budget, got, c.want, c.trips)
		}
	}
}

// TestClaimPredicates decides each shared table predicate on a hand-built
// table.
func TestClaimPredicates(t *testing.T) {
	r := &Result{ID: "demo", Cols: []Col{{"dataset", Text}, {"setting", Text}, {"algorithm", Text}, {"S_acc", Acc}, {"MB", MB}}}
	r.AddRow("A", "k=3", "FedPKD", 0.50, 1.0)
	r.AddRow("A", "k=3", "FedMD", NA, 2.0)
	r.AddRow("A", "k=3", "FedAvg", 0.40, NotReached)
	r.AddRow("B", "k=3", "FedPKD", 0.30, NotReached)
	r.AddRow("B", "k=3", "FedMD", NA, 0.5)
	r.AddRow("B", "k=3", "FedAvg", 0.35, NotReached)
	acc := r.groups("algorithm", "S_acc", "dataset")
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"lead", lead(acc, "FedPKD", 1), 0.30 - 0.35},
		{"lead A only", lead(r.where("dataset", "A").groups("algorithm", "S_acc", "dataset"), "FedPKD", 1), 0.50 - 0.40},
		{"cheapest A", lead(r.where("dataset", "A").groups("algorithm", "MB", "dataset"), "FedPKD", -1), 1.0},
		{"cheapest", lead(r.groups("algorithm", "MB", "dataset"), "FedPKD", -1), math.Inf(-1)},
		{"beats", beats(acc, "FedPKD", "FedAvg"), 0.30 - 0.35},
		{"rises", rises(r.where("algorithm", "FedPKD").groups("dataset", "S_acc")), 0.30 - 0.50},
	} {
		if math.Abs(c.got-c.want) > 1e-12 && c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// A claim with no evidence is not reproduced.
	if m := beats(acc, "FedPKD", "FedMD"); !math.IsNaN(m) {
		t.Errorf("beats against a method with no metric = %v, want NaN", m)
	}
	r.AddSeries("A/k=3/FedPKD/S_acc", []float64{0.2, 0.5})
	r.AddSeries("A/k=3/FedMD/S_acc", []float64{-1, -1})
	r.AddSeries("A/k=3/FedAvg/S_acc", []float64{0.3, 0.4})
	if got := r.where("dataset", "A").seriesLead("FedPKD", "S_acc"); math.Abs(got-(0.2-0.3)) > 1e-12 {
		t.Errorf("series lead = %v, want %v", got, 0.2-0.3)
	}
}

// TestTrafficClaimsNeedNoTraining is arithmetic over comm's section sizes and
// ResNet20's parameter count, one row per codec plus the paper's own row (a
// 0.511 MB ResNet20 update, float32 logits): the logit-to-model-update byte
// ratio at the paper's public size of 5 000, and Fig. 3's crossover — the
// smallest public set whose logits cost as much as a model update.
func TestTrafficClaimsNeedNoTraining(t *testing.T) {
	const paperPublic = 5000
	type row struct {
		name      string
		logits    func(samples, classes int) int
		model     func(params int) int
		ratio     [2]float64 // SynthC10, SynthC100
		crossover [2]int
	}
	codecRow := func(c comm.Codec, ratio [2]float64, crossover [2]int) row {
		return row{c.String(),
			func(s, k int) int { return comm.SectionWireBytes(c.LogitsSection(), s, k) },
			func(p int) int { return comm.SectionWireBytes(c.ParamsSection(true), 1, p) },
			ratio, crossover}
	}
	for _, r := range []row{
		{"paper ResNet20", comm.LogitsBytes, func(int) int { return 511_000 }, [2]float64{0.3914, 3.914}, [2]int{12775, 1278}},
		codecRow(comm.CodecFloat64, [2]float64{2.8523, 22.7894}, [2]int{1753, 220}),
		codecRow(comm.CodecFloat32, [2]float64{2.8521, 22.7882}, [2]int{1753, 220}),
		codecRow(comm.CodecInt8, [2]float64{1.2835, 6.1529}, [2]int{3896, 813}),
	} {
		for i, task := range []Task{TaskC10, TaskC100} {
			net, err := models.BuildNamed(stats.NewRNG(1), "ResNet20", task.Spec(1).InputDim, task.Classes())
			if err != nil {
				t.Fatal(err)
			}
			model := r.model(net.ParamCount())
			ratio := float64(r.logits(paperPublic, task.Classes())) / float64(model)
			cross := 1
			for r.logits(cross, task.Classes()) < model {
				cross++
			}
			t.Logf("%-15s %-9s model %8d B  logits/model at 5000: %7.4f  crossover: %6d", r.name, task, model, ratio, cross)
			if math.Abs(ratio-r.ratio[i]) > 5e-4*r.ratio[i] || cross != r.crossover[i] {
				t.Errorf("%s on %s: ratio %.4f crossover %d, want %.4f and %d", r.name, task, ratio, cross, r.ratio[i], r.crossover[i])
			}
		}
	}
	// Fig. 3's logits column is the float32 analytic size, 4 B a value,
	// whatever codec the run ships it under: it takes no codec.
	for _, p := range []int{300, 1200, paperPublic} {
		if got, want := fig3LogitsMB(p, 10)*comm.MB, float64(4*p*10); got != want || got != float64(comm.LogitsBytes(p, 10)) {
			t.Errorf("fig3 logits column at public size %d: %v B, want the float32 size %v B", p, got, want)
		}
	}
}
