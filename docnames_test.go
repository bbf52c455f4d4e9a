package fedpkd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose Go names must resolve. bench/ keeps its
// own frozen docs and module, so it is out of scope.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// codeSpan matches one backticked span on a line.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// docName matches a span that names an exported identifier of a package,
// optionally followed by one member: pkg.Name or pkg.Name.Member. Spans whose
// second part is lowercase (metric and section names like nn.client_step_us
// or engine.meta) do not match.
var docName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?$`)

// moduleFile is one parsed non-test Go file of this module or of bench/.
type moduleFile struct {
	dir string // package directory, slash-separated, relative to the repo root
	f   *ast.File
}

// parseModule parses every non-test Go file of this module and of the bench/
// module inside it, resolving identifiers within each file.
func parseModule(t *testing.T) (*token.FileSet, []moduleFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []moduleFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, moduleFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// moduleDecls maps each non-main package name of this module to the names its
// non-test files declare: types, funcs, vars and consts as "Name", and
// methods, struct fields and interface methods as "Type.Member". bench/
// keeps its own frozen docs and module, so it is out of scope.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	_, files := parseModule(t)
	for _, mf := range files {
		pkg := mf.f.Name.Name
		if pkg == "main" || mf.dir == "bench" || strings.HasPrefix(mf.dir, "bench/") {
			continue
		}
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, decl := range mf.f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				} else {
					names[recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						for _, m := range memberNames(spec.Type) {
							names[spec.Name.Name+"."+m] = true
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return decls
}

// recvName returns the type name of a method receiver (T, *T, or either
// with type parameters).
func recvName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// memberNames lists a struct type's fields (an embedded field by its type
// name) or an interface type's methods.
func memberNames(e ast.Expr) []string {
	var fields *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			typ := f.Type
			if s, ok := typ.(*ast.StarExpr); ok {
				typ = s.X
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
			continue
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// TestDocNamesResolve keeps the docs honest about the code: every backticked
// `pkg.Name` or `pkg.Name.Member` in DESIGN.md, README.md and EXPERIMENTS.md
// whose pkg is a package of this module must name a declaration that exists.
func TestDocNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				m := docName.FindStringSubmatch(span[1])
				if m == nil {
					continue
				}
				names, ok := decls[m[1]]
				if !ok {
					continue
				}
				want := m[2]
				if m[3] != "" {
					want += "." + m[3]
				}
				if !names[want] {
					t.Errorf("%s:%d: `%s.%s` names nothing in package %s", doc, i+1, m[1], want, m[1])
				}
			}
		}
	}
}
