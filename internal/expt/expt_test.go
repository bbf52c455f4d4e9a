package expt

import (
	"strings"
	"testing"
)

// microScale is even smaller than Quick, for harness tests.
var microScale = Scale{
	Name:       "micro",
	NumClients: 2,
	TrainSize:  200, TestSize: 150, PublicSize: 80, LocalTestSize: 30,
	Rounds:           1,
	PKDPrivateEpochs: 1, PKDPublicEpochs: 1, PKDServerEpochs: 1,
	LocalEpochs: 1, DistillEpochs: 1,
	FedDFLocalEpochs: 1, FedDFServerEpochs: 1,
	FedETServerEpochs: 1, VanillaServerEpoch: 1,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "std", "full"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("scale name %q", sc.Name)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("unknown scale should error")
	}
}

func TestSettingsFor(t *testing.T) {
	all := SettingsFor(TaskC10, Quick, false)
	if len(all) != 4 {
		t.Fatalf("full grid has %d settings, want 4", len(all))
	}
	high := SettingsFor(TaskC10, Quick, true)
	if len(high) != 2 {
		t.Fatalf("high-only grid has %d settings, want 2", len(high))
	}
	labels := map[string]bool{}
	for _, s := range all {
		labels[s.Label] = true
	}
	for _, want := range []string{"k=3", "k=5", "α=0.1", "α=0.5"} {
		if !labels[want] {
			t.Errorf("missing setting %q in %v", want, labels)
		}
	}
	c100 := SettingsFor(TaskC100, Quick, false)
	found := map[string]bool{}
	for _, s := range c100 {
		found[s.Label] = true
	}
	if !found["k=30"] || !found["k=50"] {
		t.Errorf("C100 settings = %v, want k=30 and k=50", found)
	}
}

func TestWeaklyNonIID(t *testing.T) {
	weak := weaklyNonIID(TaskC10, Quick)
	if len(weak) != 2 {
		t.Fatalf("weak settings = %d, want 2", len(weak))
	}
	for _, s := range weak {
		if s.Label == "k=3" || s.Label == "α=0.1" {
			t.Errorf("weakly non-IID grid contains highly non-IID setting %s", s.Label)
		}
	}
}

func TestTaskSpec(t *testing.T) {
	if TaskC10.Classes() != 10 || TaskC100.Classes() != 100 {
		t.Error("task class counts wrong")
	}
	if TaskC10.Spec(1).Name != "SynthC10" || TaskC100.Spec(1).Name != "SynthC100" {
		t.Error("task spec names wrong")
	}
}

func TestBuildAlgorithmAll(t *testing.T) {
	setting := SettingsFor(TaskC10, microScale, true)[0]
	env, err := NewEnv(TaskC10, setting, microScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(append([]string{}, AllAlgos...), AlgoKD) {
		algo, err := BuildAlgorithmOpts(name, env, microScale, 3, false, AlgoOptions{})
		if err != nil {
			t.Errorf("BuildAlgorithmOpts(%s): %v", name, err)
			continue
		}
		if algo.Name() != name {
			t.Errorf("algorithm name %q, want %q", algo.Name(), name)
		}
	}
	if _, err := BuildAlgorithmOpts("bogus", env, microScale, 3, false, AlgoOptions{}); err == nil {
		t.Error("unknown algorithm should error")
	}
	// Weight-transfer methods reject heterogeneous fleets.
	for _, name := range []string{AlgoFedAvg, AlgoFedProx, AlgoFedDF} {
		if _, err := BuildAlgorithmOpts(name, env, microScale, 3, true, AlgoOptions{}); err == nil {
			t.Errorf("%s should reject heterogeneous fleets", name)
		}
	}
	// Hetero-capable methods accept them.
	for _, name := range HeteroAlgos {
		if _, err := BuildAlgorithmOpts(name, env, microScale, 3, true, AlgoOptions{}); err != nil {
			t.Errorf("BuildAlgorithmOpts(%s, hetero): %v", name, err)
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID:    "test",
		Title: "demo",
		Cols:  []Col{{"a", Text}, {"bb", Count}},
	}
	r.AddRow("1", 2)
	r.AddRow("333", int64(4))
	table := r.Table()
	for _, want := range []string{"test", "demo", "333"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("csv = %q", csv)
	}
	md := r.Markdown()
	if !strings.HasPrefix(md, "| a | bb |\n|---|---|\n| 1 | 2 |\n") {
		t.Errorf("markdown = %q", md)
	}
	r.AddSeries("s1", []float64{0.1, 0.2})
	r.AddSeries("s0", []float64{0.3})
	scsv := r.SeriesCSV()
	if !strings.HasPrefix(scsv, "round,s0,s1\n") {
		t.Errorf("series csv header = %q", scsv)
	}
	if !strings.Contains(scsv, "0,0.3000,0.1000") {
		t.Errorf("series csv rows = %q", scsv)
	}
}

// TestPctAndMB pins how each column kind renders a number, and how every
// numeric kind renders the absences.
func TestPctAndMB(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		v    float64
		want string
	}{
		{Acc, 0.5, "50.00%"}, {Acc, -1, "N/A"}, {MB, 1.234, "1.23"}, {MB, NA, "N/A"},
		{MB3, 0.037512, "0.038"}, {Count, 952, "952"}, {Ratio, 4.6666, "4.67x"},
		{Dec1, 2, "2.0"}, {Pct0, 0.3, "30%"}, {Count, NotReached, "not reached"},
		{MB, NotReached, "not reached"}, {Count, None, "-"},
	} {
		if got := (Cell{Num: c.v}).render(c.kind); got != c.want {
			t.Errorf("kind %d renders %v as %q, want %q", c.kind, c.v, got, c.want)
		}
	}
	if got := (Cell{Text: "overall"}).render(Acc); got != "overall" {
		t.Errorf("a text cell renders as %q", got)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", microScale, 1, RunSpec{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestExperimentIDsSortedAndComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := map[string]bool{
		"fig1": true, "fig2": true, "fig3": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "fig9": true, "fig10": true, "table1": true,
	}
	found := map[string]bool{}
	for i, id := range ids {
		found[id] = true
		if i > 0 && ids[i-1] >= id {
			t.Errorf("ids not sorted: %v", ids)
		}
	}
	for id := range want {
		if !found[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// Smoke-run the cheap motivation experiments end to end at micro scale.
func TestRunFig2Micro(t *testing.T) {
	res, err := RunFig2(microScale, 5, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 10 labels + overall row.
	if len(res.Rows) != 11 {
		t.Fatalf("fig2 rows = %d, want 11", len(res.Rows))
	}
	checkClaims(t, res)
}

func TestRunFig1Micro(t *testing.T) {
	res, err := RunFig1(microScale, 5, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 settings × 2 algorithms.
	if len(res.Rows) != 8 {
		t.Fatalf("fig1 rows = %d, want 8", len(res.Rows))
	}
	checkClaims(t, res)
}

func TestRunFailuresMicro(t *testing.T) {
	res, err := RunFailures(microScale, 5, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline plus three crash levels.
	if len(res.Rows) != 4 {
		t.Fatalf("failures rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0][1].Text != "none" {
		t.Fatalf("baseline faults label = %q, want none", res.Rows[0][1].Text)
	}
}
