package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// ledgerRepeats is how many plain runs of a workload the ledger's medians
// and quartiles are taken over; one traced run follows them.
const ledgerRepeats = 3

// hostInfo is the line that says where a ledger's numbers come from.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// ledgerEntry is one end-to-end metric of one workload over the repeats:
// its noise floor sits beside its bound.
type ledgerEntry struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) ÷ median
	Values []float64 `json:"values"`
}

type layerEntry struct {
	Unit   string  `json:"unit"`
	Source string  `json:"source"`
	Moves  string  `json:"moves"`
	Value  float64 `json:"value"`
}

// workloadConstants are the frozen sizes a ledger was measured with.
type workloadConstants struct {
	Why          string  `json:"why"`
	WarmupRounds int     `json:"warmup_rounds"`
	TimedRounds  int     `json:"timed_rounds_per_episode"`
	Target       float64 `json:"target_acc"`
	Floor        float64 `json:"final_acc_floor"`
}

type workloadLedger struct {
	Constants       workloadConstants      `json:"constants"`
	RoundsAttempted int                    `json:"rounds_attempted"`
	RoundsFailed    int                    `json:"rounds_failed"`
	TimedRounds     int                    `json:"timed_rounds_pooled"`
	EndToEnd        map[string]ledgerEntry `json:"end_to_end"`
	PerLayer        map[string]layerEntry  `json:"per_layer"`
	Failures        []string               `json:"failures,omitempty"`
}

type ledger struct {
	// Claim is what gain this ledger's change asserts; the benchmark's own
	// change asserts none.
	Claim         *string                    `json:"claim"`
	Host          hostInfo                   `json:"host"`
	Seed          uint64                     `json:"seed"`
	ReferenceSeed uint64                     `json:"reference_seed"`
	RunSeconds    float64                    `json:"run_seconds"`
	Repeats       int                        `json:"repeats"`
	Workloads     map[string]*workloadLedger `json:"workloads"`
}

// runChild re-executes this binary for one run, so set-up time, RSS, CPU
// and GC state belong to that run alone, and parses its last two lines.
func runChild(ctx context.Context, w *workload, seed uint64, seconds float64, trace bool, out string) (*wireDetail, *wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	traceFlag := "0"
	if trace {
		traceFlag = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", traceFlag, "--out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s (trace %s): %w", w.Name, traceFlag, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s: child printed %d lines", w.Name, len(lines))
	}
	var wd wireDetail
	var wr wireResult
	if err := json.Unmarshal(lines[len(lines)-2], &wd); err != nil {
		return nil, nil, fmt.Errorf("%s: detail line: %w", w.Name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &wr); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", w.Name, err)
	}
	return &wd, &wr, nil
}

// runLedger measures every workload — ledgerRepeats plain runs and one
// traced run each — prints one table, and writes ledger.json and the traces
// under out. It reports whether every round of every run was sound.
func runLedger(ctx context.Context, seed uint64, seconds float64, out string) (bool, error) {
	dir, err := outDir(out)
	if err != nil {
		return false, err
	}
	lg := &ledger{Host: readHost(), Seed: seed, ReferenceSeed: referenceSeed, RunSeconds: seconds, Repeats: ledgerRepeats,
		Workloads: map[string]*workloadLedger{}}
	ok := true
	for _, w := range workloads {
		wl := &workloadLedger{
			Constants: workloadConstants{Why: w.Why, WarmupRounds: w.Warmup, TimedRounds: w.Rounds, Target: w.Target, Floor: w.Floor},
			EndToEnd:  map[string]ledgerEntry{},
			PerLayer:  map[string]layerEntry{},
		}
		lg.Workloads[w.Name] = wl
		values := map[string][]float64{}
		var pooled []float64
		var first *wireDetail
		for rep := 0; rep <= ledgerRepeats; rep++ {
			traced := rep == ledgerRepeats
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d (trace %v)\n", w.Name, rep+1, ledgerRepeats+1, traced)
			wd, wr, err := runChild(ctx, w, seed, seconds, traced, dir)
			if err != nil {
				return false, err
			}
			wl.RoundsAttempted += wr.Attempted
			wl.RoundsFailed += wr.Failed
			wl.Failures = append(wl.Failures, wd.Detail.Failures...)
			// Same seed, other process: history and ledger must still
			// repeat byte for byte.
			if first == nil {
				first = wd
			}
			for s, d := range wd.Detail.Digests {
				if want, seen := first.Detail.Digests[s]; seen && want != d {
					wl.RoundsFailed += w.Warmup + w.Rounds
					wl.Failures = append(wl.Failures, fmt.Sprintf("run %d: seed %s gave digest %s, run 1 gave %s", rep+1, s, d, want))
				}
			}
			if traced {
				for _, def := range perLayer {
					wl.PerLayer[def.Name] = layerEntry{Unit: def.Unit, Source: def.Source, Moves: def.Moves, Value: wr.Metrics[def.Name].Value}
				}
				continue
			}
			pooled = append(pooled, wd.Detail.RoundMS...)
			for _, def := range endToEnd {
				values[def.Name] = append(values[def.Name], wr.Metrics[def.Name].Value)
			}
		}
		// Percentiles are taken over the timed rounds of all repeats pooled;
		// everything else is the median over repeats.
		sorted := sortedCopy(pooled)
		wl.TimedRounds = len(pooled)
		for _, def := range endToEnd {
			v := values[def.Name]
			e := ledgerEntry{Unit: def.Unit, Better: def.Better, Bound: def.Bound, N: len(v), Median: median(v), Values: v}
			switch def.Name {
			case "round_ms_p50":
				e.Median = quantile(sorted, 0.5)
			case "round_ms_p90":
				e.Median = quantile(sorted, 0.9)
			}
			e.Q1, e.Q3 = quartiles(v)
			if e.Median != 0 {
				e.Spread = (e.Q3 - e.Q1) / e.Median
			}
			wl.EndToEnd[def.Name] = e
		}
		if wl.RoundsFailed > 0 {
			ok = false
		}
	}
	printLedger(os.Stdout, lg)
	path := filepath.Join(dir, "ledger.json")
	if err := writeJSON(path, lg); err != nil {
		return false, err
	}
	fmt.Printf("\nledger: %s\ntraces: %s\n", path, filepath.Join(dir, "trace-<workload>.jsonl"))
	return ok, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg ledger
	if err := json.Unmarshal(b, &lg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &lg, nil
}

// printLedger is the one table: every metric by name with its unit, its
// sample count, and median and quartiles over the repeats.
func printLedger(out io.Writer, lg *ledger) {
	h := lg.Host
	fmt.Fprintf(out, "host: %s %s nproc=%d GOMAXPROCS=%d commit=%s  seed=%d run_seconds=%g repeats=%d\n",
		h.GoVersion, h.OSArch, h.NumCPU, h.GOMAXPROCS, h.Commit, lg.Seed, lg.RunSeconds, lg.Repeats)
	for _, w := range workloads {
		wl := lg.Workloads[w.Name]
		if wl == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s  rounds_attempted=%d rounds_failed=%d timed_rounds_pooled=%d\n",
			w.Name, wl.RoundsAttempted, wl.RoundsFailed, wl.TimedRounds)
		fmt.Fprintf(out, "  %-40s %-8s %3s %12s %12s %12s %8s %6s\n", "end-to-end", "unit", "n", "median", "q1", "q3", "spread", "bound")
		for _, def := range endToEnd {
			e := wl.EndToEnd[def.Name]
			fmt.Fprintf(out, "  %-40s %-8s %3d %12.6g %12.6g %12.6g %8.4f %6.2f\n", def.Name, e.Unit, e.N, e.Median, e.Q1, e.Q3, e.Spread, e.Bound)
		}
		fmt.Fprintf(out, "  %-40s %-8s %3s %12s  %s\n", "per-layer (traced run)", "unit", "src", "value", "should move")
		for _, def := range perLayer {
			e := wl.PerLayer[def.Name]
			fmt.Fprintf(out, "  %-40s %-8s %3s %12.6g  %s\n", def.Name, e.Unit, e.Source, e.Value, e.Moves)
		}
		for _, f := range wl.Failures {
			fmt.Fprintln(out, "  FAILED:", f)
		}
	}
}

// compareLedgers prints, per workload and end-to-end metric, both sides'
// medians and quartiles, b's change relative to a, and a verdict: within
// bound, over bound (b is worse than a by more than the bound), or
// unresolved (either side's spread between repeats is wider than the
// bound). Exact metrics must be identical when both ledgers used one seed.
// It reports whether every row was within bound.
func compareLedgers(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(out, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n", pathA, a.Host.Commit, a.Seed, pathB, b.Host.Commit, b.Seed)
	ok := true
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "\n== %s: missing from one side\n", w.Name)
			ok = false
			continue
		}
		fmt.Fprintf(out, "\n== %s\n  %-22s %-8s %12s %25s %12s %25s %9s %6s  %s\n", w.Name,
			"metric", "unit", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b vs a", "bound", "verdict")
		for _, def := range endToEnd {
			ea, eb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			delta := 0.0
			if ea.Median != 0 {
				delta = (eb.Median - ea.Median) / ea.Median // relative to a
			}
			worse := delta
			if def.Better == "higher" {
				worse = -delta
			}
			verdict := "within bound"
			switch {
			case exactMetrics[def.Name] && sameSeed:
				if ea.Median != eb.Median {
					verdict = "over bound (exact metric differs)"
				}
			case ea.Spread > def.Bound || eb.Spread > def.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > def.Bound:
				verdict = "over bound"
			}
			if verdict != "within bound" {
				ok = false
			}
			fmt.Fprintf(out, "  %-22s %-8s %12.6g %25s %12.6g %25s %+8.2f%% %6.2f  %s\n", def.Name, def.Unit,
				ea.Median, fmt.Sprintf("[%.6g, %.6g]", ea.Q1, ea.Q3), eb.Median, fmt.Sprintf("[%.6g, %.6g]", eb.Q1, eb.Q3),
				100*delta, def.Bound, verdict)
		}
		for name := range exactMetrics {
			la, inA := wa.PerLayer[name]
			lb, inB := wb.PerLayer[name]
			if !inA || !inB || !sameSeed {
				continue
			}
			verdict := "within bound"
			if la.Value != lb.Value {
				verdict = "over bound (exact metric differs)"
				ok = false
			}
			fmt.Fprintf(out, "  %-22s %-8s %12.6g %25s %12.6g %25s %9s %6s  %s\n", name, la.Unit, la.Value, "", lb.Value, "", "", "", verdict)
		}
		if wa.RoundsFailed+wb.RoundsFailed > 0 {
			fmt.Fprintf(out, "  rounds_failed: a=%d b=%d\n", wa.RoundsFailed, wb.RoundsFailed)
			ok = false
		}
	}
	return ok, nil
}
