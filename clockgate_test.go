package fedpkd

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDistribWaitsOnOneClock keeps every wait of the distributed runtime on
// one injected clock, faults.Clock: a non-test file of internal/distrib or
// internal/faults may not refer to a time function that reads or waits on
// the OS clock. The one exception is faults.OSClock, the OS clock's
// definition. References are resolved by object with go/types, so a renamed
// import, a dot import or a function value cannot hide one.
func TestDistribWaitsOnOneClock(t *testing.T) {
	wallClock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}
	fset := token.NewFileSet()
	imp := timeOnly{importer.Default()}
	exempt := 0
	for _, dir := range []string{"internal/distrib", "internal/faults"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		// Every other import is an empty stand-in, so names from it do not
		// resolve; the type errors that leaves are expected and ignored.
		conf := types.Config{Importer: imp, Error: func(error) {}}
		conf.Check("fedpkd/"+dir, fset, files, info) //nolint:errcheck // see above
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClock[fn.Name()] {
				continue
			}
			if dir == "internal/faults" && enclosingFunc(files, id.Pos()) == "OSClock" {
				exempt++
				continue
			}
			t.Errorf("%s: time.%s waits on or reads the OS clock; take the run's faults.Clock instead",
				fset.Position(id.Pos()), fn.Name())
		}
	}
	if exempt == 0 {
		t.Error("faults.OSClock refers to no OS-clock function; the gate's one exception is stale")
	}
}

// timeOnly imports package time and hands out an empty stand-in for every
// other path: the gate resolves references to time's objects only.
type timeOnly struct{ types.Importer }

func (i timeOnly) Import(path string) (*types.Package, error) {
	if path == "time" {
		return i.Importer.Import(path)
	}
	return types.NewPackage(path, path[strings.LastIndex(path, "/")+1:]), nil
}

// enclosingFunc names the top-level function whose body holds pos, or "".
func enclosingFunc(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Pos() <= pos && pos < fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}
