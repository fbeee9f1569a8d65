package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWithLabelsDeterministicAndRoundTrips(t *testing.T) {
	a := WithLabels(MHTTPRequestMS, "status", "202", "route", "submit")
	b := WithLabels(MHTTPRequestMS, "route", "submit", "status", "202")
	if a != b {
		t.Fatalf("label order leaked into the series name: %q vs %q", a, b)
	}
	base, labels := splitName(a)
	if base != MHTTPRequestMS {
		t.Fatalf("splitName base = %q", base)
	}
	want := []string{"route", "submit", "status", "202"}
	if len(labels) != len(want) {
		t.Fatalf("splitName labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("splitName labels = %v, want %v (sorted by key)", labels, want)
		}
	}
	if got := WithLabels(MHTTPRequestMS); got != MHTTPRequestMS {
		t.Fatalf("WithLabels with no pairs = %q, want the base name", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("odd kv count must panic — it is a call-site bug")
			}
		}()
		WithLabels(MHTTPRequestMS, "route")
	}()
}

func TestRegistryWildcardsAndKinds(t *testing.T) {
	for _, name := range []string{
		MSolverPrecondPrefix + "jacobi",              // wildcard counter
		MStagePrefix + "grow",                        // wildcard histogram
		MJobsFailedPrefix + "deadline",               // wildcard counter
		WithLabels(MHTTPRequestMS, "route", "trace"), // labeled histogram
	} {
		if !IsMetric(name) {
			t.Fatalf("%q should resolve via the registry", name)
		}
	}
	if IsMetric("totally.unregistered") {
		t.Fatal("unregistered name resolved")
	}
	// Longest wildcard prefix wins so "explore.prefix.hits" (exact) is not
	// shadowed by any shorter family.
	if d, ok := lookupMetric(MExplorePrefixHits); !ok || d.Kind != KindCounter {
		t.Fatalf("exact name lost to a wildcard: %+v %v", d, ok)
	}

	tr := New()
	for _, tc := range []struct {
		name string
		use  func()
	}{
		{"unregistered counter", func() { tr.Counter("no.such.metric") }},
		{"kind mismatch", func() { tr.Counter(MJobRunMS) }},
		{"unregistered histogram", func() { tr.Histogram("no.such.hist") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic, like faultinject.Arm on an unknown site", tc.name)
				}
			}()
			tc.use()
		}()
	}
}

// metricCallFuncs are the call names whose first string-literal argument
// must be a registered metric name.
var metricCallFuncs = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"WithLabels": true, "count": true, "observe": true,
}

// TestMetricNameLiteralsRegistered is the lint half of the metric
// registry (mirroring the faultinject site registry's source scan): it
// walks every non-test Go file in the module and rejects any string
// literal passed to Counter/Gauge/Histogram/WithLabels (or the engine's
// count/observe helpers) that the registry does not know. Runtime panics
// in mustMetric catch dynamic names; this catches literals on paths no
// test executes.
func TestMetricNameLiteralsRegistered(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	walkModuleSources(t, fset, func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			var fn string
			switch fe := call.Fun.(type) {
			case *ast.SelectorExpr:
				fn = fe.Sel.Name
			case *ast.Ident:
				fn = fe.Name
			default:
				return true
			}
			if !metricCallFuncs[fn] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true // constants and built expressions check at runtime
			}
			name, uerr := strconv.Unquote(lit.Value)
			if uerr != nil || name == "" {
				return true
			}
			if !IsMetric(name) {
				violations = append(violations,
					fset.Position(lit.Pos()).String()+": "+fn+"("+lit.Value+") is not registered in internal/obs/names.go")
			}
			return true
		})
	})
	for _, v := range violations {
		t.Error(v)
	}
}

// TestRegisteredMetricsReferenced is the converse of
// TestMetricNameLiteralsRegistered: every M* constant declared in
// names.go must be used by at least one non-test Go file elsewhere in the
// module tree, perfbench included, so a metric whose producer was deleted
// does not linger in the registry.
func TestRegisteredMetricsReferenced(t *testing.T) {
	fset := token.NewFileSet()
	names, err := parser.ParseFile(fset, "names.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var consts []string
	for _, d := range names.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, id := range spec.(*ast.ValueSpec).Names {
				if len(id.Name) > 1 && id.Name[0] == 'M' && ast.IsExported(id.Name[1:]) {
					consts = append(consts, id.Name)
				}
			}
		}
	}
	if len(consts) == 0 {
		t.Fatal("no M* constants found in names.go")
	}

	namesPath, err := filepath.Abs("names.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	walkModuleSources(t, fset, func(path string, f *ast.File) {
		if path == namesPath {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	})
	for _, c := range consts {
		if !used[c] {
			t.Errorf("%s is registered in internal/obs/names.go but no non-test Go file references it", c)
		}
	}
}

// walkModuleSources parses every non-test Go file in the module tree
// (testdata, hidden and related directories excluded) and hands each one
// to visit with its absolute path.
func walkModuleSources(t *testing.T, fset *token.FileSet, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(moduleRoot(t), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || name == "related" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, 0)
		if perr != nil {
			return perr
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the obs package")
		}
		dir = parent
	}
}
