package fedpkd

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// orphanAllowlist names the declarations under internal/ that only tests
// reach: oracles and fixtures, each with the test that needs it. A name
// ending in "*" covers every declaration of its package with that prefix.
// Production code never belongs here; delete it instead.
var orphanAllowlist = map[string]string{
	"internal/tensor.ref*":                "naive GEMM oracles of the tensor equivalence, property and fuzz suites (reference.go)",
	"internal/tensor.MatMul":              "allocating NN form the tensor matmul, property and pool tests compare against",
	"internal/tensor.MatMulTN":            "allocating TN form of TestMatMulTNMatchesExplicitTranspose and the tensor properties",
	"internal/tensor.MatMulNT":            "allocating NT form of TestMatMulNTMatchesExplicitTranspose and the tensor properties",
	"internal/tensor.Transpose":           "explicit-transpose oracle of TestPackedNTIsTransposePlusNN and the transpose properties",
	"internal/tensor.TransposeInto":       "subject of TestEquivalenceTranspose, the kernel under Transpose",
	"internal/tensor.FromRows":            "literal matrices of the tensor, nn, kd, proto, dataset and filter unit tests",
	"internal/tensor.Matrix.Equal":        "tolerance comparison most packages' tests assert with",
	"internal/nn.CaptureState":            "reference encoder of TestModelSectionMatchesCaptureState and the lane and state tests",
	"internal/ckpt.Read":                  "in-memory container reader of FuzzRead and the ckpt, nn and engine tests; runs read files (ReadFile)",
	"internal/faults.Stats.CorruptCopies": "the copy terms of the corruption law every bus chaos test checks (distrib's checkCorruptLaw)",
}

// stdInterfaceMethods are method names the standard library calls through
// its own interfaces: fmt's Stringer, error, and errors' Unwrap.
var stdInterfaceMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// declKey names one top-level declaration: its package directory, relative
// to the repo root, and its name ("Type.Method" for a method).
type declKey struct{ dir, name string }

func (k declKey) String() string { return k.dir + "." + k.name }

// refSet is what one stretch of code refers to: declarations, the member
// names it selects (x.Name), and its type-switch clauses, whose bodies count
// only once one of their case types is live.
type refSet struct {
	decls   []declKey
	sels    []string
	clauses []*switchClause
}

type switchClause struct {
	types []declKey
	body  refSet
}

func (r *refSet) merge(o refSet) {
	r.decls = append(r.decls, o.decls...)
	r.sels = append(r.sels, o.sels...)
	r.clauses = append(r.clauses, o.clauses...)
}

// declNode is one declaration in the graph. Declarations that share a key
// (init functions, per-architecture variants) share a node.
type declNode struct {
	pos  token.Pos
	root bool
	refs refSet
}

// declGraph is the module's declaration graph: what each top-level
// declaration refers to, which methods live with which type, and the
// interface method names the module declares.
type declGraph struct {
	fset       *token.FileSet
	decls      map[declKey]*declNode
	methods    map[declKey][]declKey
	ifaceNames map[string]bool
}

// refWalker collects a file's references. Identifiers resolve through the
// parser's per-file scopes: one with no object, or whose object is a
// top-level declaration of this file, names a declaration of the package.
type refWalker struct {
	dir      string
	imports  map[string]string // local name -> package dir, module imports
	external map[string]bool   // local names of imports outside the module
	top      map[any]bool      // this file's top-level declaring nodes
}

func (w *refWalker) walk(n ast.Node, out *refSet) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil {
				if dir, ok := w.imports[id.Name]; ok {
					out.decls = append(out.decls, declKey{dir, n.Sel.Name})
					return false
				}
				if w.external[id.Name] {
					return false
				}
			}
			w.walk(n.X, out)
			out.sels = append(out.sels, n.Sel.Name)
			return false
		case *ast.Ident:
			if n.Obj == nil || w.top[n.Obj.Decl] {
				out.decls = append(out.decls, declKey{w.dir, n.Name})
			}
		case *ast.Field:
			// Field, parameter and interface method names declare; only the
			// type refers.
			w.walk(n.Type, out)
			return false
		case *ast.TypeSwitchStmt:
			if n.Init != nil {
				w.walk(n.Init, out)
			}
			w.walk(n.Assign, out)
			for _, s := range n.Body.List {
				cc := s.(*ast.CaseClause)
				var caseTypes, body refSet
				for _, e := range cc.List {
					w.walk(e, &caseTypes)
				}
				for _, s := range cc.Body {
					w.walk(s, &body)
				}
				if len(caseTypes.decls) == 0 {
					out.merge(body) // default, nil or a type from outside the module
				} else {
					out.clauses = append(out.clauses, &switchClause{caseTypes.decls, body})
				}
			}
			return false
		}
		return true
	})
}

// buildDeclGraph parses the module and bench/ into a declaration graph.
// Roots are every declaration outside internal/ (the facade, cmd/,
// examples/, bench/) and every init function. A method lives with its
// receiver type; a `var _ I = (*T)(nil)` assertion is no declaration at all;
// a parenthesized const group that uses iota or gives its members a named
// type is one enum, whose members live and die together.
func buildDeclGraph(t *testing.T) *declGraph {
	t.Helper()
	fset, files := parseModule(t)
	pkgNames := map[string]string{}
	for _, mf := range files {
		pkgNames[mf.dir] = mf.f.Name.Name
	}
	g := &declGraph{fset: fset, decls: map[declKey]*declNode{}, methods: map[declKey][]declKey{}, ifaceNames: map[string]bool{}}
	for _, mf := range files {
		w := &refWalker{dir: mf.dir, imports: map[string]string{}, external: map[string]bool{}, top: map[any]bool{}}
		for _, imp := range mf.f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			dir, inModule := "", false
			if path == "fedpkd" {
				dir, inModule = ".", true
			} else if rest, ok := strings.CutPrefix(path, "fedpkd/"); ok {
				dir, inModule = rest, true
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if inModule {
				name = pkgNames[dir]
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if inModule {
				w.imports[name] = dir
			} else {
				w.external[name] = true
			}
		}
		for _, d := range mf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				w.top[d] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					w.top[s] = true
				}
			}
		}
		root := !strings.HasPrefix(mf.dir, "internal/")
		add := func(name string, pos token.Pos, refs refSet) declKey {
			k := declKey{mf.dir, name}
			n := g.decls[k]
			if n == nil {
				n = &declNode{pos: pos, root: root || name == "init"}
				g.decls[k] = n
			}
			n.refs.merge(refs)
			return k
		}
		for _, d := range mf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				var refs refSet
				if d.Recv != nil {
					w.walk(d.Recv, &refs)
				}
				w.walk(d.Type, &refs)
				if d.Body != nil {
					w.walk(d.Body, &refs)
				}
				if d.Recv == nil {
					add(d.Name.Name, d.Pos(), refs)
					continue
				}
				typ := recvName(d.Recv.List[0].Type)
				m := add(typ+"."+d.Name.Name, d.Pos(), refs)
				tk := declKey{mf.dir, typ}
				g.methods[tk] = append(g.methods[tk], m)
			case *ast.GenDecl:
				var members []declKey
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						var refs refSet
						if s.TypeParams != nil {
							w.walk(s.TypeParams, &refs)
						}
						w.walk(s.Type, &refs)
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range memberNames(it) {
								g.ifaceNames[m] = true
							}
						}
						add(s.Name.Name, s.Pos(), refs)
					case *ast.ValueSpec:
						var refs refSet
						if s.Type != nil {
							w.walk(s.Type, &refs)
						}
						for _, v := range s.Values {
							w.walk(v, &refs)
						}
						for _, n := range s.Names {
							if n.Name == "_" {
								continue
							}
							members = append(members, add(n.Name, n.Pos(), refs))
						}
					}
				}
				if isEnum(d) {
					for _, k := range members {
						g.decls[k].refs.merge(refSet{decls: members})
					}
				}
			}
		}
	}
	return g
}

// isEnum reports whether d is a parenthesized const group that uses iota or
// whose first member has a named (not predeclared) type.
func isEnum(d *ast.GenDecl) bool {
	if d.Tok != token.CONST || !d.Lparen.IsValid() {
		return false
	}
	if id, ok := d.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); ok && types.Universe.Lookup(id.Name) == nil {
		return true
	}
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// reach returns the live declarations, from the roots to a fixed point, and
// the member names that live code selects.
func (g *declGraph) reach() (live map[declKey]bool, sels map[string]bool) {
	live, sels = map[declKey]bool{}, map[string]bool{}
	var queue []declKey
	var pending []*switchClause
	mark := func(k declKey) {
		if g.decls[k] != nil && !live[k] {
			live[k] = true
			queue = append(queue, k)
		}
	}
	add := func(r *refSet) {
		for _, k := range r.decls {
			mark(k)
		}
		for _, s := range r.sels {
			sels[s] = true
		}
		pending = append(pending, r.clauses...)
	}
	for k, n := range g.decls {
		if n.root {
			mark(k)
		}
	}
	for {
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			add(&g.decls[k].refs)
			for _, m := range g.methods[k] {
				mark(m)
			}
		}
		waiting := pending
		pending = nil
		fired := false
		for _, c := range waiting {
			if anyLive(live, c.types) {
				add(&c.body)
				fired = true
			} else {
				pending = append(pending, c)
			}
		}
		if !fired {
			return live, sels
		}
	}
}

func anyLive(live map[declKey]bool, keys []declKey) bool {
	for _, k := range keys {
		if live[k] {
			return true
		}
	}
	return false
}

// allowed returns the allowlist entry that covers k, or "".
func allowed(k declKey) string {
	if _, ok := orphanAllowlist[k.String()]; ok {
		return k.String()
	}
	for entry := range orphanAllowlist {
		if prefix, ok := strings.CutSuffix(entry, "*"); ok && strings.HasPrefix(k.String(), prefix) {
			return entry
		}
	}
	return ""
}

// TestNoOrphanDecls fails on code no entry point reaches. Every top-level
// declaration under internal/, exported or not, must be reachable from the
// facade, cmd/, examples/ or bench/ (see buildDeclGraph for the rules), and
// every method of a reachable type must be selected by reachable code or
// name an interface method. Methods match by name alone, so one that shares
// its name with a method reachable code does call passes. Tests alone do not
// keep code alive: an oracle or fixture only tests use goes on
// orphanAllowlist.
func TestNoOrphanDecls(t *testing.T) {
	g := buildDeclGraph(t)
	live, sels := g.reach()
	used := map[string]bool{}
	var orphans []declKey
	for k := range g.decls {
		if !strings.HasPrefix(k.dir, "internal/") {
			continue
		}
		typ, method, isMethod := strings.Cut(k.name, ".")
		var dead bool
		if !isMethod {
			dead = !live[k]
		} else {
			// A method of a dead type is reported with its type.
			dead = live[declKey{k.dir, typ}] &&
				!sels[method] && !g.ifaceNames[method] && !stdInterfaceMethods[method]
		}
		if !dead {
			continue
		}
		if entry := allowed(k); entry != "" {
			used[entry] = true
			continue
		}
		orphans = append(orphans, k)
	}
	sort.Slice(orphans, func(i, j int) bool { return g.decls[orphans[i]].pos < g.decls[orphans[j]].pos })
	for _, k := range orphans {
		pos := g.fset.Position(g.decls[k].pos)
		if strings.Contains(k.name, ".") {
			t.Errorf("%s:%d: method %s is selected by no reachable code and names no interface method", pos.Filename, pos.Line, k.name)
		} else {
			t.Errorf("%s:%d: %s is reached by no entry point", pos.Filename, pos.Line, k.name)
		}
	}
	for entry := range orphanAllowlist {
		if !used[entry] {
			t.Errorf("orphanAllowlist entry %q covers nothing unreached; drop it", entry)
		}
	}
}

// TestAlgorithmsDeclareNoRound holds the round engine's structural rule: no
// algorithm owns a round loop. The engine's Runner is the only Round in the
// tree; internal/core and internal/baselines supply phase hooks only.
func TestAlgorithmsDeclareNoRound(t *testing.T) {
	fset, files := parseModule(t)
	for _, mf := range files {
		if mf.dir != "internal/core" && mf.dir != "internal/baselines" {
			continue
		}
		for _, d := range mf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Round" {
				t.Errorf("%s: %s.Round: algorithm packages supply engine hooks, not their own Round",
					fset.Position(fd.Pos()), recvName(fd.Recv.List[0].Type))
			}
		}
	}
}

// unsetAllowlist names the exported struct fields under internal/ that no
// non-test code writes on purpose, each with why it stays.
var unsetAllowlist = map[string]string{
	"internal/obs.RoundTrace.KernelParallelCalls": "always 0 since kernels run on their caller; the frozen bench/ still reads it",
}

// fieldWrites returns the field names non-test code writes: a key in a
// composite literal, the target of an assignment or ++/--, or an operand of
// &. A positional composite literal writes nothing here; key it.
func fieldWrites(files []moduleFile) map[string]bool {
	written := map[string]bool{}
	sel := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[s.Sel.Name] = true
		}
	}
	for _, mf := range files {
		ast.Inspect(mf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							written[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					sel(e)
				}
			case *ast.IncDecStmt:
				sel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					sel(n.X)
				}
			}
			return true
		})
	}
	return written
}

// TestNoUnsetFields fails on an exported struct field under internal/ that
// no non-test code in the module (bench/ included) writes: a setting no
// caller can reach is a knob with one legal value, and its zero is the only
// behaviour the code ever runs. Delete the field, or add it to
// unsetAllowlist with why it stays.
//
// Writes match by field name alone, so a field of the same name written on
// any other struct hides an unset one — the blind spot this gate shares with
// TestNoOrphanDecls's methods.
func TestNoUnsetFields(t *testing.T) {
	fset, files := parseModule(t)
	type field struct {
		key, name string
		pos       token.Pos
	}
	var fields []field
	for _, mf := range files {
		if !strings.HasPrefix(mf.dir, "internal/") {
			continue
		}
		for _, d := range mf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							fields = append(fields, field{mf.dir + "." + ts.Name.Name + "." + n.Name, n.Name, n.Pos()})
						}
					}
				}
			}
		}
	}
	written := fieldWrites(files)
	used := map[string]bool{}
	for _, f := range fields {
		if written[f.name] {
			continue
		}
		if _, ok := unsetAllowlist[f.key]; ok {
			used[f.key] = true
			continue
		}
		pos := fset.Position(f.pos)
		t.Errorf("%s:%d: field %s is written by no non-test code", pos.Filename, pos.Line, f.key)
	}
	for entry := range unsetAllowlist {
		if !used[entry] {
			t.Errorf("unsetAllowlist entry %q is written or gone; drop it", entry)
		}
	}
}
