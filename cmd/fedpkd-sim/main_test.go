package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a one-round, two-client run that finishes in milliseconds.
const tiny = "-rounds 1 -clients 2 -train 200 -public 80 -test 100 -local-epochs 1 -server-epochs 1 "

// TestRunRejects covers the flag combinations run refuses before it builds
// anything: the shared binder's rules and the ones that need -distributed,
// which only this binary has.
func TestRunRejects(t *testing.T) {
	for args, want := range map[string]string{
		"-buffer-size 2":                      "-buffer-size and -staleness-alpha require -async",
		"-staleness-alpha 0.7":                "-buffer-size and -staleness-alpha require -async",
		"-codec int4":                         "unknown codec",
		"-availability period=x":              "availability period",
		"-shards 2":                           "-shards requires -distributed",
		"-distributed bus -leaf-timeout 1s":   "-leaf-timeout and -shard-quorum require -shards > 1",
		"-distributed bus -shard-quorum 1":    "-leaf-timeout and -shard-quorum require -shards > 1",
		"-chaos drop=0.1":                     "-chaos, -client-timeout, and -min-quorum require -distributed",
		"-client-timeout 1s":                  "-chaos, -client-timeout, and -min-quorum require -distributed",
		"-min-quorum 1":                       "-chaos, -client-timeout, and -min-quorum require -distributed",
		"-population 0,1":                     "-population requires -distributed",
		"-serve -distributed bus":             "-serve requires -distributed, -checkpoint-dir, and -ctl-addr",
		"-ctl-addr /tmp/x.sock":               "-ctl-addr requires -serve",
		"-ctl-cmd ping":                       "-ctl-cmd requires -ctl-addr",
		"-task c1000":                         "unknown task",
		"-partition sorted":                   "unknown partition",
		tiny + "-trace-dir= -resume /no/such": "resume from /no/such",
	} {
		if err := run(strings.Fields(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fedpkd-sim %s: error %v, want one naming %q", args, err, want)
		}
	}
}

// TestRunTraces runs the same tiny configuration in-process and over the bus
// tree. The recorder reaches both through the RunSpec alone, so both must
// leave one trace line per round.
func TestRunTraces(t *testing.T) {
	for _, mode := range []string{"", "-distributed bus -shards 2 -codec int8 -async"} {
		dir := t.TempDir()
		if err := run(strings.Fields(tiny + "-progress=false -trace-dir " + dir + " " + mode)); err != nil {
			t.Fatalf("fedpkd-sim %s: %v", mode, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "fedpkd_trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(b), "\n"); n != 1 {
			t.Errorf("fedpkd-sim %s: %d trace lines for one round", mode, n)
		}
	}
}
