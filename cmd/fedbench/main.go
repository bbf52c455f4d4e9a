// Command fedbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedbench -exp fig5 -scale std -seed 42 -out results/
//	fedbench -exp all -scale quick
//	fedbench -list
//
// Each experiment prints the same rows/series the paper reports and, with
// -out, also writes CSV files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fedpkd/internal/expt"
	"fedpkd/internal/faults"
	"fedpkd/internal/obs"
	"fedpkd/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expID     = flag.String("exp", "", "experiment id (or 'all'); see -list")
		scaleName = flag.String("scale", "std", "compute scale: quick, std, or full")
		seed      = flag.Uint64("seed", 42, "experiment seed")
		outDir    = flag.String("out", "", "directory for CSV output (optional)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		targetC10 = flag.Float64("target-c10", expt.DefaultTargetC10, "table1 accuracy target for SynthC10")
		targetC1h = flag.Float64("target-c100", expt.DefaultTargetC100, "table1 accuracy target for SynthC100")
		debugAddr = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
		workers   = flag.Int("workers", 0, "tensor-kernel worker fan-out; 0 tracks GOMAXPROCS (results are bit-identical at any width)")
		ckptDir   = flag.String("checkpoint-dir", "", "root directory for per-run checkpoints (each run gets its own subdirectory)")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint cadence in rounds (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "continue interrupted runs from their newest valid checkpoint under -checkpoint-dir")
		codecName = flag.String("codec", "", "payload wire codec for experiment runs: float64raw (default), float32, or int8; the compression experiment sweeps all of them regardless")
		chaosSpec = flag.String("chaos", "", "failures experiment: replace the default crash sweep with this fault plan, e.g. drop=0.1,crash=0.2 (tier keys tierdrop/tierdelay/tierdup/tiercorrupt/tiersendfail/leafcrash target the aggregator tree)")
		asyncMode = flag.Bool("async", false, "run the generic matrix experiments in barrier-free async mode (the async experiment compares sync vs async regardless)")
		bufSize   = flag.Int("buffer-size", 0, "async buffer size K; 0 defaults to half the fleet (with -async)")
		stalAlpha = flag.Float64("staleness-alpha", 0, "async staleness exponent α in 1/(1+s)^α; 0 keeps the engine default (with -async)")
		cliTmo    = flag.Duration("client-timeout", 0, "failures experiment: straggler deadline per distributed round (default 1m)")
		minQuorum = flag.Int("min-quorum", 0, "failures experiment: abort distributed rounds that aggregate fewer uploads; 0 disables")
		availSpec = flag.String("availability", "", "run the generic matrix experiments under a seeded diurnal availability trace, e.g. period=24,min=0.5,max=0.9 (the churn experiment compares fixed vs diurnal regardless)")
		shards    = flag.Int("shards", 0, "reduce distributed experiment runs through an aggregator tree with this many leaves; 0/1 keeps the flat server (the hierarchy experiment compares flat vs tree regardless)")
		leafTmo   = flag.Duration("leaf-timeout", 0, "treefaults experiment: root-side deadline per shard digest (default 1m)")
		shardQ    = flag.Int("shard-quorum", 0, "treefaults experiment: abort tree rounds that merge fewer shard digests; 0 disables")
	)
	flag.Parse()

	tensor.SetWorkers(*workers)
	if err := expt.SetWireCodec(*codecName); err != nil {
		return err
	}
	expt.SetCheckpointPolicy(*ckptDir, *ckptEvery, *resume)
	plan, err := faults.ParsePlan(*chaosSpec, *seed)
	if err != nil {
		return err
	}
	expt.SetFailureModel(plan, *cliTmo, *minQuorum)
	if !*asyncMode && (*bufSize != 0 || *stalAlpha != 0) {
		return fmt.Errorf("-buffer-size and -staleness-alpha require -async")
	}
	expt.SetAsyncMode(*asyncMode, *bufSize, *stalAlpha)
	if err := expt.SetAvailabilityModel(*availSpec); err != nil {
		return err
	}
	expt.SetTreePolicy(*shards)
	expt.SetTreeFaultModel(*leafTmo, *shardQ)

	if *debugAddr != "" {
		dbg, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/\n", dbg.Addr())
	}

	if *list {
		fmt.Println("experiments:", strings.Join(expt.ExperimentIDs(), " "))
		return nil
	}
	if *expID == "" {
		return fmt.Errorf("missing -exp (use -list to see ids)")
	}
	sc, err := expt.ScaleByName(*scaleName)
	if err != nil {
		return err
	}

	ids := []string{*expID}
	if *expID == "all" {
		ids = expt.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		var res *expt.Result
		if id == "table1" {
			res, err = expt.RunTable1(sc, *seed, *targetC10, *targetC1h)
		} else {
			res, err = expt.Run(id, sc, *seed)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(res.Table())
		fmt.Printf("(%s completed in %s at scale %s)\n\n", id, time.Since(start).Round(time.Millisecond), sc.Name)
		if *outDir != "" {
			if err := writeCSVs(*outDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSVs(dir string, res *expt.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	path := filepath.Join(dir, res.ID+".csv")
	if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	mdPath := filepath.Join(dir, res.ID+".md")
	if err := os.WriteFile(mdPath, []byte(res.Markdown()), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", mdPath, err)
	}
	if s := res.SeriesCSV(); s != "" {
		path := filepath.Join(dir, res.ID+"_series.csv")
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}
