// Command fedbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedbench -exp fig5 -scale std -seed 42 -out results/
//	fedbench -exp all -scale quick
//	fedbench -list
//
// Each experiment prints the same rows/series the paper reports and, with
// -out, also writes CSV files. The run-configuration flags (-codec, -async,
// -availability, -checkpoint-dir, -chaos, -shards, ...) fill one expt.RunSpec
// handed to every experiment; DESIGN.md §3 tabulates which experiment
// honours which.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fedpkd/internal/expt"
	"fedpkd/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		expID     = fs.String("exp", "", "experiment id (or 'all'); see -list")
		scaleName = fs.String("scale", "std", "compute scale: quick, std, or full")
		seed      = fs.Uint64("seed", 42, "experiment seed")
		outDir    = fs.String("out", "", "directory for CSV output (optional)")
		list      = fs.Bool("list", false, "list experiment ids and exit")
		targetC10 = fs.Float64("target-c10", expt.DefaultTargetC10, "table1 accuracy target for SynthC10")
		targetC1h = fs.Float64("target-c100", expt.DefaultTargetC100, "table1 accuracy target for SynthC100")
		debugAddr = fs.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060)")
		runFlags  = expt.BindRunFlags(fs, true)
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	spec, err := runFlags.Spec(*seed)
	if err != nil {
		return err
	}

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
			res, err = expt.RunTable1(sc, *seed, spec, *targetC10, *targetC1h)
		} else {
			res, err = expt.Run(id, sc, *seed, spec)
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
