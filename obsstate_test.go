package fedpkd

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// TestObsHoldsNoProcessState keeps metrics with the run that produced them.
// internal/obs declares no package-level variable: a run's numbers live in
// its Recorder, and the one process-wide export, fedpkd_kernel_stats, reads
// the tensor layer's own counters when asked. internal/fl, whose training
// loops every concurrent run shares, does not import obs at all: a loop
// returns its step count, and the round hook adds it to its own run's trace.
func TestObsHoldsNoProcessState(t *testing.T) {
	fset, files := parseModule(t)
	seen := map[string]bool{}
	for _, mf := range files {
		switch {
		case mf.dir == "internal/obs" || strings.HasPrefix(mf.dir, "internal/obs/"):
			seen["internal/obs"] = true
			for _, d := range mf.f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
					t.Errorf("%s: internal/obs declares package-level state; keep a run's metrics in its Recorder",
						fset.Position(g.Pos()))
				}
			}
		case mf.dir == "internal/fl":
			seen["internal/fl"] = true
			for _, imp := range mf.f.Imports {
				if imp.Path.Value == `"fedpkd/internal/obs"` {
					t.Errorf("%s: internal/fl imports internal/obs; return counts to the round hook instead",
						fset.Position(imp.Pos()))
				}
			}
		}
	}
	for _, dir := range []string{"internal/obs", "internal/fl"} {
		if !seen[dir] {
			t.Errorf("no non-test file of %s was parsed; the gate checks nothing", dir)
		}
	}
}
