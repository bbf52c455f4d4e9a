// Command bench is the repository's one benchmark: four closed-loop
// workloads, ten end-to-end metrics and an outside-in layer trace. See
// README.md in this directory.
//
//	bash bench/run.sh                       the full ledger: every workload, 3 plain + 1 traced run
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1     one run
//	bash bench/run.sh -compare a.json b.json                            do two ledgers agree?
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs the full ledger")
		seed         = flag.Uint64("seed", 42, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from plain episodes; 1: per-layer metrics from a traced run")
		out          = flag.String("out", "", "directory for traces and the ledger (default: a directory under the system temp dir)")
		compare      = flag.Bool("compare", false, "compare two ledger files given as arguments")
	)
	flag.Parse()
	pinGOMAXPROCS()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		var ok bool
		if ok, err = compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			return 1
		}
	case *workloadName != "":
		err = child(ctx, *workloadName, *seed, *seconds, *trace != 0, *out)
	default:
		var ok bool
		if ok, err = runLedger(ctx, *seed, *seconds, *out); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// pinGOMAXPROCS caps the scheduler at four cores so a run means the same
// thing on a big host as on the two-core reference.
func pinGOMAXPROCS() {
	if n := runtime.NumCPU(); n > 4 {
		runtime.GOMAXPROCS(4)
	}
}

// outDir resolves the -out flag; the default is a fresh temp directory, so
// nothing a run writes is ever committed.
func outDir(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, os.MkdirAll(flagValue, 0o755)
	}
	return os.MkdirTemp("", "fedpkd-bench-out-")
}

// wireMetric and wireResult are the last line of a child's standard output,
// exactly the keys the benchmark contract names.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// wireDetail is the line before it: what the ledger needs beyond the
// contract's keys to pool repeats and check them against each other.
type wireDetail struct {
	Detail struct {
		Workload       string            `json:"workload"`
		Seed           uint64            `json:"seed"`
		Trace          bool              `json:"trace"`
		Episodes       int               `json:"episodes"`
		RoundMS        []float64         `json:"round_ms"`
		Digests        map[string]string `json:"digests"`
		RoundsToTarget int               `json:"rounds_to_target"`
		ReferenceAcc   []float64         `json:"reference_acc"`
		Failures       []string          `json:"failures"`
	} `json:"detail"`
}

// child runs one workload once and prints a table, the detail line and the
// result line.
func child(ctx context.Context, name string, seed uint64, seconds float64, trace bool, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	cfg := runConfig{
		Workload: w, Seed: seed, Seconds: seconds, Trace: trace,
		MinEpisodes: seedSlots, ProbeBudget: 100 * time.Millisecond, TwinRounds: 2,
	}
	if trace {
		if cfg.OutDir, err = outDir(out); err != nil {
			return err
		}
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	return printResult(os.Stdout, cfg, res)
}

func printResult(out io.Writer, cfg runConfig, res *result) error {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if unknown := res.Metrics.complete(defs); len(unknown) > 0 {
		return fmt.Errorf("measured metrics missing from the catalogue: %v", unknown)
	}
	wr := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	fmt.Fprintf(out, "%s seed=%d trace=%v episodes=%d timed_rounds=%d rounds_attempted=%d rounds_failed=%d\n",
		cfg.Workload.Name, cfg.Seed, cfg.Trace, res.Episodes, len(res.RoundMS), res.Attempted, res.Failed)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		wr.Metrics[d.Name] = wireMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(out, "  reference seed %d: target %.3f reached in round %d, accuracy by round %.3f\n",
		referenceSeed, cfg.Workload.Target, res.RoundsToTarget, res.ReferenceAcc)
	for _, f := range res.Failures {
		fmt.Fprintln(out, "  FAILED:", f)
	}
	var wd wireDetail
	d := &wd.Detail
	d.Workload, d.Seed, d.Trace = cfg.Workload.Name, cfg.Seed, cfg.Trace
	d.Episodes, d.RoundMS, d.Digests = res.Episodes, res.RoundMS, res.Digests
	d.RoundsToTarget, d.ReferenceAcc, d.Failures = res.RoundsToTarget, res.ReferenceAcc, res.Failures
	enc := json.NewEncoder(out)
	if err := enc.Encode(wd); err != nil {
		return err
	}
	return enc.Encode(wr)
}
