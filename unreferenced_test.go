package mobiquery

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedNames type-checks the whole module from source, tests,
// benchmark/ and examples/ included, and fails on every package-level name
// or method outside a test file that nothing in the module refers to: every
// such name under internal/ and cmd/, and the root package's unexported ones.
// A use inside the name's own declaration (recursion, a method's receiver)
// is not a reference. A method whose type satisfies an interface declaring
// it is exempt: calls through the interface do not name the method.
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

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// covered reports whether a package-level name or method obj, declared in
// file, must have a reference.
func covered(obj types.Object, file string) bool {
	name, pkg := obj.Name(), obj.Pkg().Path()
	return !strings.HasSuffix(file, "_test.go") && name != "_" && name != "main" && name != "init" &&
		(pkg == "mobiquery" && !obj.Exported() ||
			strings.HasPrefix(pkg, "mobiquery/internal/") || strings.HasPrefix(pkg, "mobiquery/cmd/"))
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
