package mobiquery

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreferencedNames type-checks the whole module from source, tests,
// benchmark/ and examples/ included, and fails on every package-level name
// or method outside a test file that nothing in the module refers to: every
// such name under internal/ and cmd/, and the root package's unexported ones.
// A use inside the name's own declaration (recursion, a method's receiver)
// is not a reference. A method whose type satisfies an interface declaring
// it is exempt: calls through the interface do not name the method. The same
// type-check also fails on every struct field, by the same coverage rule,
// that nothing reads (see unreadFields), and on every reference to a callee
// of allowedCallers from a function it does not allow.
func TestNoUnreferencedNames(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path; "…_test" for external tests
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("mobiquery", filepath.ToSlash(filepath.Dir(p)))
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkgs := map[string]*types.Package{}
	std := importer.Default()
	var conf types.Config
	conf.Importer = importerFunc(func(ip string) (*types.Package, error) {
		if files[ip] == nil {
			return std.Import(ip)
		}
		var err error
		if pkgs[ip] == nil {
			pkgs[ip], err = conf.Check(ip, fset, files[ip], info)
		}
		return pkgs[ip], err
	})
	for ip := range files {
		if _, err := conf.Importer.Import(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}

	skip := map[*ast.Ident]bool{} // a name's uses inside its own declaration
	for _, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					ast.Inspect(fd, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							fn, _ := info.Uses[id].(*types.Func)
							skip[id] = fn != nil && fn.Origin() == info.Defs[fd.Name] || fd.Recv != nil && fd.Recv.Pos() <= id.Pos() && id.Pos() < fd.Recv.End()
						}
						return true
					})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = used[obj] || !skip[id]
	}

	// Every named interface of the module and of all it imports, and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var todo []*types.Package
	for _, p := range pkgs {
		todo = append(todo, p)
	}
	for ; len(todo) > 0; todo = todo[1:] {
		if p := todo[0]; !seen[p] {
			seen[p] = true
			todo = append(todo, p.Imports()...)
			for _, name := range p.Scope().Names() {
				if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	var missing []string
	for id, obj := range info.Defs {
		fn, _ := obj.(*types.Func)
		method := fn != nil && fn.Signature().Recv() != nil
		if obj != nil && !used[obj] && (method || obj.Parent() == obj.Pkg().Scope()) &&
			covered(obj, fset.File(id.Pos()).Name()) && !(method && satisfies(fn, ifaces)) {
			missing = append(missing, fset.Position(id.Pos()).String()+": "+id.Name)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is referenced nowhere in the module", m)
	}
	for _, v := range unreadFields(fset, files, info) {
		t.Errorf("%s: field %s is read nowhere in the module", fset.Position(v.Pos()), v.Name())
	}
	for _, c := range strayCalls(fset, files, info) {
		t.Error(c)
	}
}

// allowedCallers is the design as a table: each callee, and the only
// functions — or whole packages — that may refer to it, wherever covered
// would look. Service.Advance is the one driver outside the engine: it alone
// pops the due schedule, fans out and flushes re-arms. A subscription wires
// its query's hooks (besides the engine's id-keyed wrappers) and builds its
// planner and corridor in attach alone, and drives them around each period
// in before and after alone. The planner and the corridor have no lock, so
// every other call into them comes from a Subscription method under the
// query lock: replan (from before, after and UpdateWaypoint) and
// PrefetchStats. Advance alone ingests pyramid epochs; Open alone installs the
// field's sampling schedule and places its nodes. A sensor is sampled in one
// place on the engine's side, readingOf, and in the discrete-event agent's
// two sampling steps. A reading folds into a disk's core.Area in the cold
// scan's foldNode and the pyramid's ingest and fringe alone, and two Areas
// merge in the window ring and the pyramid's rollup and covered tiles alone.
// The period path writes the service's shared ledger
// only through a dispatch worker's lane: the lane alone publishes span
// batches to the firehose and folds evaluation histograms, and nothing
// outside internal/obs publishes one span at a time.
var allowedCallers = map[string][]string{
	"mobiquery/internal/core.QueryEngine.PopDue":        {"mobiquery.Service.Advance", "mobiquery/internal/core"},
	"mobiquery/internal/core.QueryEngine.FlushRearms":   {"mobiquery.Service.Advance", "mobiquery/internal/core"},
	"mobiquery/internal/core.QueryEngine.NewRearmBatch": {"mobiquery.Service.Advance", "mobiquery/internal/core"},
	"mobiquery/internal/core.Query.SetSampler":          {"mobiquery.Subscription.attach", "mobiquery/internal/core.QueryEngine.SetQuerySampler"},
	"mobiquery/internal/core.Query.SetPlan":             {"mobiquery.Subscription.attach", "mobiquery/internal/core.QueryEngine.SetQueryPlan"},
	"mobiquery/internal/core.Query.SetWarmer":           {"mobiquery.Subscription.attach", "mobiquery/internal/core.QueryEngine.SetQueryWarmer"},
	"mobiquery/internal/core.Query.SetAggIndex":         {"mobiquery.Subscription.attach", "mobiquery/internal/core.QueryEngine.SetQueryAggIndex"},
	"mobiquery/internal/core.QueryEngine.SetSampler":    {"mobiquery.Open"},
	"mobiquery/internal/prefetch.NewPlanner":            {"mobiquery.Subscription.attach"},
	"mobiquery/internal/corridor.NewCache":              {"mobiquery.Subscription.attach"},
	"mobiquery/internal/core.QueryEngine.UpsertNode":    {"mobiquery.Open"},
	"mobiquery/internal/prefetch.Planner.NoteServed":    {"mobiquery.Subscription.after"},
	"mobiquery/internal/corridor.Cache.TakeMispredict":  {"mobiquery.Subscription.after"},
	"mobiquery/internal/corridor.Cache.StageThrough":    {"mobiquery.Subscription.after"},
	"mobiquery/internal/pyramid.Pyramid.EnsureEpoch":    {"mobiquery.Service.Advance"},
	"mobiquery/internal/prefetch.Planner.Replan":        {"mobiquery.Subscription.replan"},
	"mobiquery/internal/corridor.Cache.SetProfile":      {"mobiquery.Subscription.attach", "mobiquery.Subscription.replan"},
	"mobiquery/internal/prefetch.Planner.Stats":         {"mobiquery.Subscription.PrefetchStats"},
	"mobiquery/internal/prefetch.Planner.Outstanding":   {"mobiquery.Subscription.PrefetchStats"},
	"mobiquery/internal/corridor.Cache.Stats":           {"mobiquery.Subscription.PrefetchStats"},
	"mobiquery.Subscription.replan":                     {"mobiquery.Subscription.before", "mobiquery.Subscription.after", "mobiquery.Subscription.UpdateWaypoint"},
	"mobiquery/internal/obs.SpanSink.Publish":           {"mobiquery/internal/obs"},
	"mobiquery/internal/obs.SpanSink.PublishBatch":      {"mobiquery.lane.publish"},
	"mobiquery/internal/obs.Histogram.Fold":             {"mobiquery.lane.fold"},
	"mobiquery/internal/core.Area.Fold": {
		"mobiquery/internal/core.QueryEngine.foldNode", "mobiquery/internal/pyramid.Pyramid.buildRow", "mobiquery/internal/pyramid.Pyramid.ServeWindow",
	},
	"mobiquery/internal/core.Area.Merge": {
		"mobiquery/internal/core.Query.mergeWindow", "mobiquery/internal/pyramid.Pyramid.rollup", "mobiquery/internal/pyramid.Pyramid.ServeWindow",
	},
	"mobiquery/internal/field.Field.Sample": {
		"mobiquery/internal/core.readingOf", "mobiquery/internal/core.agent.sampleInto", "mobiquery/internal/core.agent.leafReport",
	},
}

// strayCalls returns, sorted, every reference to an allowedCallers callee
// from a function the table does not allow, and every callee of the table
// that no longer exists.
func strayCalls(fset *token.FileSet, files map[string][]*ast.File, info *types.Info) []string {
	var stray []string
	defined := map[string]bool{}
	for _, obj := range info.Defs {
		if fn, ok := obj.(*types.Func); ok {
			defined[funcKey(fn)] = true
		}
	}
	for callee := range allowedCallers {
		if !defined[callee] {
			stray = append(stray, "allowedCallers names "+callee+", which is defined nowhere")
		}
	}
	for ip, fs := range files {
		for _, f := range fs {
			if !scanned(ip, fset.File(f.Pos()).Name()) {
				continue
			}
			for _, d := range f.Decls {
				caller := ip // a package-level initializer
				if fd, ok := d.(*ast.FuncDecl); ok {
					caller = funcKey(info.Defs[fd.Name].(*types.Func))
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, _ := n.(*ast.Ident)
					fn, _ := info.Uses[id].(*types.Func)
					if fn == nil {
						return true
					}
					callee := funcKey(fn.Origin())
					if allowed, ok := allowedCallers[callee]; ok && !slices.Contains(allowed, caller) && !slices.Contains(allowed, ip) {
						stray = append(stray, fmt.Sprintf("%s: %s refers to %s, which only %v may", fset.Position(id.Pos()), caller, callee, allowed))
					}
					return true
				})
			}
		}
	}
	sort.Strings(stray)
	return stray
}

// funcKey names a function as allowedCallers does: package path, then the
// receiver's type name for a method, then the function's name.
func funcKey(fn *types.Func) string {
	recv := fn.Signature().Recv()
	if fn.Pkg() == nil { // error.Error
		return fn.Name()
	}
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + t.String() + "." + fn.Name()
}

// unreadFields returns, in declaration order, every struct field declared in
// files that covered admits and that no use in files reads. A use is a write
// when it is a composite-literal key or the selector on the left of = or :=;
// every other use, +=, ++, &x.f, x.f.g = … and x.f[i] = … included, reads.
// Exempt are blank and embedded fields, json-tagged fields (encoding/json
// reads them) and the fields of a struct type used as a map key (the map
// compares them).
func unreadFields(fset *token.FileSet, files map[string][]*ast.File, info *types.Info) []*types.Var {
	write := map[*ast.Ident]bool{}
	exempt := map[*types.Var]bool{}
	var fields []*types.Var
	for _, fs := range files {
		for _, f := range fs {
			file := fset.File(f.Pos()).Name()
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write[id] = true
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, l := range n.Lhs {
							if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
								write[sel.Sel] = true
							}
						}
					}
				case *ast.MapType:
					if st, ok := info.TypeOf(n.Key).Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							exempt[st.Field(i)] = true
						}
					}
				case *ast.StructType:
					for _, fd := range n.Fields.List {
						tag := ""
						if fd.Tag != nil {
							tag, _ = strconv.Unquote(fd.Tag.Value)
						}
						_, json := reflect.StructTag(tag).Lookup("json")
						for _, id := range fd.Names {
							v := info.Defs[id].(*types.Var)
							exempt[v] = exempt[v] || json
							if covered(v, file) {
								fields = append(fields, v)
							}
						}
					}
				}
				return true
			})
		}
	}
	read := map[*types.Var]bool{}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !write[id] {
			read[v.Origin()] = true
		}
	}
	var unread []*types.Var
	for _, v := range fields {
		if !read[v] && !exempt[v] {
			unread = append(unread, v)
		}
	}
	sort.Slice(unread, func(i, j int) bool { return unread[i].Pos() < unread[j].Pos() })
	return unread
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// covered reports whether a package-level name or method obj, declared in
// file, must have a reference.
func covered(obj types.Object, file string) bool {
	name, pkg := obj.Name(), obj.Pkg().Path()
	return scanned(pkg, file) && name != "_" && name != "main" && name != "init" && (pkg != "mobiquery" || !obj.Exported())
}

// scanned reports whether file, of package pkg, is one the checks look at:
// not a test, and in the root package, internal/ or cmd/.
func scanned(pkg, file string) bool {
	return !strings.HasSuffix(file, "_test.go") &&
		(pkg == "mobiquery" || strings.HasPrefix(pkg, "mobiquery/internal/") || strings.HasPrefix(pkg, "mobiquery/cmd/"))
}

// satisfies reports whether the method fn's receiver type, or a pointer to
// it, implements one of ifaces that declares a method of fn's name.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv().Type()
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// TestUnreadFieldsClassifier runs unreadFields over small packages, each
// with a field f that must be flagged exactly when nothing reads it.
func TestUnreadFieldsClassifier(t *testing.T) {
	cases := []struct {
		name, src, test string // declarations of x.go and x_test.go
		unread          bool
	}{
		{"assigned only", "type T struct{ f int }\nfunc g(t *T) { t.f = 1 }", "", true},
		{"composite-literal key only", "type T struct{ f int }\nvar _ = T{f: 1}", "", true},
		{"declared only", "type T struct{ f int }\nvar _ T", "", true},
		{"plain read", "type T struct{ f int }\nfunc g(t T) int { return t.f }", "", false},
		{"+=", "type T struct{ f int }\nfunc g(t *T) { t.f += 1 }", "", false},
		{"++", "type T struct{ f int }\nfunc g(t *T) { t.f++ }", "", false},
		{"address taken", "type T struct{ f int }\nfunc g(t *T) *int { return &t.f }", "", false},
		{"inner field assigned", "type U struct{ g int }\ntype T struct{ f U }\nfunc h(t *T) { t.f.g = 1 }", "", false},
		{"element assigned", "type T struct{ f []int }\nfunc g(t *T) { t.f[0] = 1 }", "", false},
		{"json tag", "type T struct{ f int `json:\"f\"` }\nfunc g(t *T) { t.f = 1 }", "", false},
		{"embedded", "type f struct{}\ntype T struct{ f }\nfunc g(t *T) { t.f = f{} }", "", false},
		{"map key", "type T struct{ f int }\nvar _ = map[T]bool{{f: 1}: true}", "", false},
		{"read in a test file", "type T struct{ f int }\nfunc g(t *T) { t.f = 1 }", "func h(t T) int { return t.f }", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var fs []*ast.File
			for _, src := range [][2]string{{"x.go", c.src}, {"x_test.go", c.test}} {
				f, err := parser.ParseFile(fset, src[0], "package x\n"+src[1], parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				fs = append(fs, f)
			}
			const ip = "mobiquery/internal/x"
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			if _, err := new(types.Config).Check(ip, fset, fs, info); err != nil {
				t.Fatal(err)
			}
			unread := false
			for _, v := range unreadFields(fset, map[string][]*ast.File{ip: fs}, info) {
				unread = unread || v.Name() == "f"
			}
			if unread != c.unread {
				t.Errorf("f flagged unread = %v, want %v", unread, c.unread)
			}
		})
	}
}
