// Package faultpoint checks that every site name passed to the
// internal/faultinject APIs (Check, Arm, Disarm, Calls) is a compile-time
// string constant drawn from the canonical registry in that package. A
// typo'd hook name compiles fine but silently never fires; this analyzer
// turns it into a CI failure. The analyzer imports the registry directly,
// so registering a new site in internal/faultinject is the only step
// needed to teach both the runtime and the linter about it.
package faultpoint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"sprout/internal/faultinject"
	"sprout/internal/lint/analysis"
)

// Analyzer is the faultpoint pass.
var Analyzer = &analysis.Analyzer{
	Name: "faultpoint",
	Doc:  "faultinject site names must be registered constants from the canonical site table",
	Run:  run,
}

// siteFuncs are the faultinject functions whose first argument is a site.
var siteFuncs = map[string]bool{
	"Check":            true,
	"Arm":              true,
	"ArmProbabilistic": true,
	"ArmLatency":       true,
	"Disarm":           true,
	"Calls":            true,
	"Fired":            true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/faultinject") {
				return true
			}
			if !siteFuncs[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			arg := call.Args[0]
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"faultinject.%s: site must be a compile-time string constant from the canonical site table", fn.Name())
				return true
			}
			site := constant.StringVal(tv.Value)
			if !faultinject.IsSite(site) {
				pass.Reportf(arg.Pos(),
					"faultinject.%s: %q is not a registered site (known: %s)",
					fn.Name(), site, strings.Join(faultinject.Sites(), ", "))
			}
			return true
		})
	}
	return nil, nil
}
