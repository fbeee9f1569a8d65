package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sprout/internal/lint/loader"
)

// testSeams are the exported identifiers under internal/ that exist for
// tests on purpose. Every other export must have a non-test caller. A
// method is keyed as package path, type and method: pkg.Type.Method.
var testSeams = map[string]string{
	"sprout/internal/faultinject.Arm":              "arms a fault site; production only evaluates sites",
	"sprout/internal/faultinject.ArmLatency":       "arms a fault site; production only evaluates sites",
	"sprout/internal/faultinject.ArmProbabilistic": "arms a fault site; production only evaluates sites",
	"sprout/internal/faultinject.Calls":            "lets a chaos test count how often a site was evaluated",
	"sprout/internal/faultinject.Disarm":           "disarms one site mid-test",
	"sprout/internal/faultinject.Fired":            "lets a chaos test count how often a site fired",
	"sprout/internal/faultinject.Reset":            "disarms every site between tests",
	"sprout/internal/obs.WithClock":                "pins span timestamps for the trace goldens",
	"sprout/internal/obs.WithEpoch":                "pins the trace epoch for the trace goldens",
	"sprout/internal/obs.IsMetric":                 "lets the registry tests check metric name literals",
	"sprout/internal/sparse.ApproxEqualTol":        "tolerance comparison shared by the solver and route tests",
	"sprout/internal/sparse.DiffLaplacians":        "names the first bit difference of two assembled systems in tests",
	"sprout/internal/geom.Poly":                    "builds polygon fixtures for the geometry tests",
	"sprout/internal/geom.PolyFromRect":            "builds polygon fixtures for the geometry tests",
	"sprout/internal/obs.Tracer.EventRecords":      "lets the pipeline tests read the recorded instant events",
	"sprout/internal/server.Store.Kill":            "simulates a crash for the durability tests",
}

// interfaceMethods are method names that implement an interface the
// program calls through, so no selector names the concrete method: the
// fmt.Stringer, error and errors.Unwrap protocols, io.Writer and
// http.ResponseWriter, and the functional options' Apply.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Write": true, "WriteHeader": true, "Apply": true,
}

// TestNoExportOnlyTestsReach fails on an exported package-level func,
// type, var or const, or an exported method of a package-level type,
// under internal/ (lint packages excluded) that no non-test Go file uses
// outside its own declaration. Module packages are type-checked; the
// separate perfbench module counts by identifier.
func TestNoExportOnlyTestsReach(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-module type check")
	}
	l, err := loader.New(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*loader.Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	// declared maps each package-level object to the source range of its
	// own declaration; a use inside that range does not count.
	type span struct{ from, to token.Pos }
	declared := map[types.Object]span{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[pkg.Info.Defs[d.Name]] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declared[pkg.Info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declared[pkg.Info.Defs[id]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			if d, ok := declared[obj]; !ok || id.Pos() < d.from || id.Pos() >= d.to {
				used[obj] = true
			}
		}
	}
	perfbench := perfbenchIdents(t, filepath.Join(l.ModuleDir, "perfbench"))

	var unused []string
	seams := map[string]bool{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, l.ModulePath+"/internal/") ||
			strings.HasPrefix(pkg.Path, l.ModulePath+"/internal/lint") {
			continue
		}
		check := func(obj types.Object, key string) {
			if !obj.Exported() || used[obj] || perfbench[obj.Name()] {
				return
			}
			if testSeams[key] != "" {
				seams[key] = true
				return
			}
			unused = append(unused, l.Fset.Position(obj.Pos()).String()+": "+key)
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(obj, pkg.Path+"."+name)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !interfaceMethods[m.Name()] {
					check(m, pkg.Path+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reach it: delete it, move it into a _test.go file, or list it in testSeams with a reason", u)
	}
	for key := range testSeams {
		if !seams[key] {
			t.Errorf("testSeams lists %s, which is gone or has a non-test caller: drop the entry", key)
		}
	}
}

// perfbenchIdents returns every identifier named in the non-test Go
// files of the perfbench module.
func perfbenchIdents(t *testing.T, dir string) map[string]bool {
	t.Helper()
	idents := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idents
}
