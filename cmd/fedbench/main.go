// Command fedbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedbench -exp fig5 -scale std -seed 42 -out results/
//	fedbench -exp all -scale quick
//	fedbench -list
//
// Each experiment prints the rows/series the paper reports and one line per
// claim decided on them; -out also writes CSV and markdown tables and one
// scorecard.md. fedbench exits non-zero when an experiment fails, or, after
// all output is written, when a claim is violated (ids on stderr). The run-configuration flags (-codec, -async,
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
	var results []*expt.Result
	var violated []string
	for _, id := range ids {
		start := time.Now()
		res, err := expt.Run(id, sc, *seed, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(res.Table())
		for _, c := range res.Claims {
			fmt.Println(c)
		}
		fmt.Printf("(%s completed in %s at scale %s)\n\n", id, time.Since(start).Round(time.Millisecond), sc.Name)
		if *outDir != "" {
			if err := writeFiles(*outDir, res.ID+".csv", res.CSV(), res.ID+".md", res.Markdown(),
				res.ID+"_series.csv", res.SeriesCSV()); err != nil {
				return err
			}
		}
		results = append(results, res)
		violated = append(violated, res.Violations()...)
	}
	if *outDir != "" {
		if err := writeFiles(*outDir, "scorecard.md", expt.Scorecard(sc.Name, results)); err != nil {
			return err
		}
	}
	if len(violated) > 0 {
		return fmt.Errorf("claims violated: %s", strings.Join(violated, ", "))
	}
	return nil
}

// writeFiles writes name/content pairs into dir, skipping empty contents.
func writeFiles(dir string, nameContent ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	for i := 0; i < len(nameContent); i += 2 {
		if nameContent[i+1] == "" {
			continue
		}
		path := filepath.Join(dir, nameContent[i])
		if err := os.WriteFile(path, []byte(nameContent[i+1]), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}
