// Package floateq forbids exact floating-point equality in the numeric
// core (internal/geom, internal/sparse, internal/route). `a == b` on
// floats is almost always a latent bug around rounding — the SPROUT
// pipeline's V = L⁻¹E solves and geometry predicates accumulate error —
// so comparisons must go through the epsilon helper
// sparse.ApproxEqualTol instead.
//
// Comparisons against an exact constant zero are exempt: in IEEE-754,
// "was this knob left at its zero value" (cfg.Tol == 0) and "skip the
// explicitly stored zero" (v != 0) are exact by construction and
// idiomatic throughout the solver.
package floateq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"sprout/internal/lint/analysis"
)

// Analyzer is the floateq pass.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "no ==/!= between floating-point expressions in geom/sparse/route; use sparse.ApproxEqualTol",
	Run:  run,
}

// scopeSuffixes are the package-path suffixes the pass applies to.
var scopeSuffixes = []string{"internal/geom", "internal/sparse", "internal/route"}

func run(pass *analysis.Pass) (any, error) {
	inScope := false
	for _, s := range scopeSuffixes {
		if strings.HasSuffix(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, b.X) || !isFloat(pass, b.Y) {
				return true
			}
			if isZero(pass, b.X) || isZero(pass, b.Y) {
				return true
			}
			pass.Reportf(b.OpPos,
				"exact floating-point %s: use an epsilon comparison (sparse.ApproxEqualTol) or //lint:ignore with a justification", b.Op)
			return true
		})
	}
	return nil, nil
}

// isFloat reports whether the expression's type is a floating-point (or
// complex) kind.
func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isZero reports whether e is a compile-time constant equal to zero.
func isZero(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
