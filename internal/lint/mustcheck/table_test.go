package mustcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMustUseNamesDeclared keeps the mustUse table honest: every listed
// name must still be a func or method declared in the non-test source of
// its package, so deleting an API cannot leave a dead entry behind.
func TestMustUseNamesDeclared(t *testing.T) {
	for suffix, names := range mustUse {
		// The package sits under the module root, three levels above this
		// one (internal/lint/mustcheck).
		dir := filepath.Join("..", "..", "..", filepath.FromSlash(suffix))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		declared := map[string]bool{}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declared[fd.Name.Name] = true
				}
			}
		}
		if parsed == 0 {
			t.Fatalf("%s: no Go source at %s", suffix, dir)
		}
		var missing []string
		for name := range names {
			if !declared[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			t.Errorf("mustUse lists %s.%s, but the package declares no func or method by that name", suffix, name)
		}
	}
}
