// Package mustcheck flags discarded results of the pure numeric and
// geometric kernels: sparse solves (sparse.CGCtx, Laplacian.SolveCtx,
// Cholesky.Solve), solver setup that reports validation errors
// (sparse.ReassembleLaplacian, sparse.StampLaplacian), route's nodal-analysis entry points
// (NodeCurrentsCtx, PairVoltagesCtx), and geom's region/polygon clipping
// algebra (Union, Intersect, Subtract, Xor, Bloat, Erode, Rasterize, ...).
// These functions have no side effects — calling one as a statement, or
// assigning every result to the blank identifier, throws the computation
// (and, for solves, the error that says whether it converged) away. Such a
// call is either dead code or a lost error check; both are bugs.
package mustcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"sprout/internal/lint/analysis"
)

// Analyzer is the mustcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "mustcheck",
	Doc:  "results of sparse solves and geom clipping must not be discarded",
	Run:  run,
}

// mustUse maps a package-path suffix to the function and method names
// whose results must be consumed. Method names apply to any receiver type
// in that package.
var mustUse = map[string]map[string]bool{
	"internal/sparse": {
		"CGCtx": true, "Solve": true, "SolveCtx": true,
		"ReassembleLaplacian": true, "StampLaplacian": true,
	},
	"internal/route": {
		"NodeCurrentsCtx": true, "PairVoltagesCtx": true,
	},
	"internal/geom": {
		"Union": true, "Intersect": true, "Subtract": true, "Xor": true,
		"IntersectRect": true, "Bloat": true, "Erode": true,
		"Translate": true, "Rasterize": true, "Components": true,
	},
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
					report(pass, call, "discarded")
				}
			case *ast.AssignStmt:
				if !allBlank(stmt.Lhs) || len(stmt.Rhs) != 1 {
					return true
				}
				if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok {
					report(pass, call, "assigned to the blank identifier")
				}
			}
			return true
		})
	}
	return nil, nil
}

// allBlank reports whether every left-hand side is the blank identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// report emits a diagnostic when the call resolves to a must-use kernel.
func report(pass *analysis.Pass, call *ast.CallExpr, how string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	for suffix, names := range mustUse {
		if strings.HasSuffix(fn.Pkg().Path(), suffix) && names[fn.Name()] {
			pass.Reportf(call.Pos(),
				"result of %s.%s %s: the call is pure — its result (and error, if any) must be used",
				fn.Pkg().Name(), fn.Name(), how)
			return
		}
	}
}
