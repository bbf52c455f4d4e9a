package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"fedpkd/internal/fl"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the code: the
// same workloads, metrics, units, directions and bounds, in the same order.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := readBenchmarkFile(t)
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, want name %q why %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d = %+v, want %+v", i, got, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d = %+v, want %+v", i, got, d)
		}
	}
}

// TestCatalogueIsWellFormed checks names, units and directions, and that
// every layer metric says which end-to-end metric it should move on which
// workload.
func TestCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	e2e := map[string]bool{}
	hasSetup := false
	for _, d := range endToEnd {
		e2e[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	names := map[string]bool{"all": true}
	for _, w := range workloads {
		if !legalName.MatchString(w.Name) || names[w.Name] {
			t.Errorf("workload name %q is illegal or repeated", w.Name)
		}
		names[w.Name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !legalName.MatchString(d.Name) {
			t.Errorf("illegal metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is listed twice", d.Name)
		}
		seen[d.Name] = true
		if !legalUnit.MatchString(d.Unit) {
			t.Errorf("%s: illegal unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		if !strings.Contains(d.Name, ".") {
			t.Errorf("%s: layer metrics are named <module>.<name>", d.Name)
		}
		if d.Source != "R" && d.Source != "C" && d.Source != "P" {
			t.Errorf("%s: source = %q", d.Name, d.Source)
		}
		metrics, where, ok := strings.Cut(d.Moves, "@")
		if !ok {
			t.Errorf("%s: moves = %q, want <metrics>@<workloads>", d.Name, d.Moves)
			continue
		}
		for _, m := range strings.Split(metrics, ",") {
			if !e2e[m] {
				t.Errorf("%s: moves unknown end-to-end metric %q", d.Name, m)
			}
		}
		for _, w := range strings.Split(where, ",") {
			if !names[w] {
				t.Errorf("%s: moves on unknown workload %q", d.Name, w)
			}
		}
	}
	for name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exact metric %q is not in the catalogue", name)
		}
	}
}

// shrunk is a workload cut down to a smoke test: one warm-up round, two
// timed rounds, a few dozen samples per client, no accuracy gate.
func shrunk(w *workload) *workload {
	s := *w
	s.Train, s.Public, s.Test = 40*w.Clients, 60, 60
	s.Warmup, s.Rounds = 1, 2
	s.Target, s.Floor = 0, 0
	return &s
}

// TestEveryWorkloadEmitsEveryMetric plays each workload for two rounds,
// plain and traced with the probes at one iteration, and checks that the
// result line carries exactly the metrics BENCHMARK.json names, each once
// and finite, and that nothing failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[bool][]string{}
	for _, d := range bf.EndToEnd {
		want[false] = append(want[false], d.Name)
	}
	for _, d := range bf.PerLayer {
		want[true] = append(want[true], d.Name)
	}
	t.Setenv("TMPDIR", t.TempDir()) // checkpoint and probe directories land here
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Workload: shrunk(w), Seed: 7, Trace: traced, MinEpisodes: 1, TwinRounds: 1}
			if traced {
				cfg.OutDir = t.TempDir()
			}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			var out bytes.Buffer
			if err := printResult(&out, cfg, res); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var wr wireResult
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&wr); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", w.Name, traced, err)
			}
			if len(wr.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.Name, traced, len(wr.Metrics), len(want[traced]))
			}
			for _, name := range want[traced] {
				m, ok := wr.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, name, m.Value)
				}
			}
			if !traced {
				for _, name := range want[false] {
					if wr.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, wr.Metrics[name].Value)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl")); err != nil {
				t.Errorf("%s: traced run wrote no trace: %v", w.Name, err)
			}
			// The workloads separate the layers: a layer a workload never
			// enters reports no time there.
			for _, d := range perLayer {
				layer, _, _ := strings.Cut(d.Name, ".")
				idle := (layer == "transport" && w.Mode == "") ||
					(layer == "ckpt" && !w.Ckpt) ||
					(strings.HasPrefix(d.Name, "comm.encode") && w.Codec == "") ||
					(d.Name == "distrib.leaf_reduce_ms" && w.Shards == 0)
				if idle && wr.Metrics[d.Name].Value != 0 {
					t.Errorf("%s: %s = %v on a workload that never enters that layer", w.Name, d.Name, wr.Metrics[d.Name].Value)
				}
				busy := (layer == "transport" && w.Mode != "") || (layer == "ckpt" && w.Ckpt) ||
					(strings.HasPrefix(d.Name, "comm.encode") && w.Codec != "")
				if busy && wr.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: %s = %v on the workload that exists to exercise it", w.Name, d.Name, wr.Metrics[d.Name].Value)
				}
			}
		}
	}
}

// TestSameSeedSameInputs is the input half of the determinism contract: a
// seed fixes the generated environment and options, another seed changes
// them, and an episode index maps to the same seed every time.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w := shrunk(w)
		a, b, other := w.generate(9), w.generate(9), w.generate(10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: generate(9) twice differs", w.Name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: generate(9) equals generate(10)", w.Name)
		}
		envA, err := fl.NewEnv(a.Env)
		if err != nil {
			t.Fatal(err)
		}
		envB, err := fl.NewEnv(b.Env)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(envA.Splits, envB.Splits) || !reflect.DeepEqual(envA.ClientData, envB.ClientData) {
			t.Errorf("%s: one seed built two different environments", w.Name)
		}
	}
	for e := 0; e < 3*seedSlots; e++ {
		got := episodeSeed(5, e)
		if e%seedSlots == 0 && got != referenceSeed {
			t.Errorf("episode %d: seed %d, want the reference seed", e, got)
		}
		if got != episodeSeed(5, e%seedSlots) {
			t.Errorf("episode %d does not replay episode %d", e, e%seedSlots)
		}
		if e%seedSlots != 0 && got == episodeSeed(6, e) {
			t.Errorf("episode %d: seeds 5 and 6 generate the same inputs", e)
		}
	}
}

// TestQuartilesMatchPython pins the spread to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{4, 4, 4, 4}, 4, 4},
	} {
		if q1, q3 := quartiles(tc.v); math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestCompareLedgers drives the three verdicts.
func TestCompareLedgers(t *testing.T) {
	mk := func(scale, spread float64, acc float64) *ledger {
		lg := &ledger{Seed: 42, Workloads: map[string]*workloadLedger{}}
		for _, w := range workloads {
			wl := &workloadLedger{EndToEnd: map[string]ledgerEntry{}, PerLayer: map[string]layerEntry{}}
			for _, d := range endToEnd {
				med := 100.0
				if d.Name == "final_acc" {
					med = acc
				} else if !exactMetrics[d.Name] {
					if d.Better == "lower" {
						med *= scale
					} else {
						med /= scale
					}
				}
				wl.EndToEnd[d.Name] = ledgerEntry{Unit: d.Unit, Better: d.Better, Bound: d.Bound, N: 3, Median: med,
					Q1: med * (1 - spread/2), Q3: med * (1 + spread/2), Spread: spread}
			}
			wl.PerLayer["engine.rounds_to_target"] = layerEntry{Unit: "count", Value: 3}
			lg.Workloads[w.Name] = wl
		}
		return lg
	}
	dir := t.TempDir()
	write := func(name string, lg *ledger) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, lg); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(1, 0.01, 0.5))
	for _, tc := range []struct {
		name    string
		other   *ledger
		ok      bool
		verdict string
	}{
		{"same", mk(1.01, 0.01, 0.5), true, "within bound"},
		{"slower", mk(1.30, 0.01, 0.5), false, "over bound"},
		{"noisy", mk(1, 0.40, 0.5), false, "unresolved"},
		{"inexact", mk(1, 0.01, 0.49), false, "exact metric differs"},
	} {
		var out bytes.Buffer
		ok, err := compareLedgers(&out, base, write(tc.name+".json", tc.other))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: ok=%v, want %v with a %q row:\n%s", tc.name, ok, tc.ok, tc.verdict, out.String())
		}
	}
}

// TestSelfTimeIsDurationLessChildren checks the trace's accounting rule.
func TestSelfTimeIsDurationLessChildren(t *testing.T) {
	tr := newTracer()
	root := tr.add(0, "w/0/0", "engine", "round", tr.epoch, tr.epoch.Add(100), 1, 0)
	tr.add(root, "w/0/0", "fl", "client_train", tr.epoch, tr.epoch.Add(30), 1, 0)
	tr.add(root, "w/0/0", "core", "aggregate", tr.epoch.Add(30), tr.epoch.Add(50), 1, 0)
	busy := tr.add(0, "w/0/1", "engine", "round", tr.epoch, tr.epoch.Add(10), 1, 0)
	tr.add(busy, "w/0/1", "fl", "client_train", tr.epoch, tr.epoch.Add(25), 1, 0) // summed across clients
	tr.selfTimes()
	if got := tr.spans[root-1].Self; got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := tr.spans[busy-1].Self; got != 0 {
		t.Errorf("over-covered root self = %d, want 0", got)
	}
	if got := tr.spans[1].Self; got != 30 {
		t.Errorf("leaf self = %d, want its duration 30", got)
	}
}
