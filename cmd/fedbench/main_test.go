package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejects covers the checks run makes before any experiment starts.
func TestRunRejects(t *testing.T) {
	for args, want := range map[string]string{
		"":                                 "missing -exp",
		"-exp fig2 -scale huge":            "unknown scale",
		"-exp fig99 -scale quick":          "unknown experiment",
		"-exp fig2 -resume":                "-resume requires -checkpoint-dir",
		"-exp fig2 -buffer-size 2":         "-buffer-size and -staleness-alpha require -async",
		"-exp fig2 -availability period=x": "availability period",
		"-exp fig2 -chaos gremlins=1":      "gremlins",
		"-exp fig2 -codec int4":            "unknown codec",
	} {
		if err := run(strings.Fields(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fedbench %s: error %v, want one naming %q", args, err, want)
		}
	}
}

// TestRunWritesResults regenerates the cheapest experiment end to end under a
// non-default spec and checks the -out files.
func TestRunWritesResults(t *testing.T) {
	out := t.TempDir()
	if err := run(strings.Fields("-exp fig2 -scale quick -codec int8 -shards 2 -out " + out)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2.csv", "fig2.md"} {
		if b, err := os.ReadFile(filepath.Join(out, name)); err != nil || len(b) == 0 {
			t.Errorf("%s: %d bytes, %v", name, len(b), err)
		}
	}
	if err := run([]string{"-list"}); err != nil {
		t.Error(err)
	}
}
