// Package ctxdelegate enforces SPROUT's cancellation conventions:
//
//  1. An exported context-free F beside an FCtx with the same receiver is
//     reported outright in a package whose path contains /internal/:
//     internal packages keep one ctx-first entry per operation. In the
//     public facade F must be one statement delegating to FCtx with
//     context.Background() or context.TODO(), since wrappers that
//     re-implement logic drift from their Ctx variant.
//
//  2. In the solver-adjacent packages (internal/route, internal/sparse),
//     any function containing an unbounded loop — `for { ... }` or a
//     condition-only `for cond { ... }` — must accept a context.Context so
//     the loop has a cancellation path. Condition-only loops that drain a
//     slice (`for len(q) > 0`, `for i < len(s)`) are structurally bounded
//     by their data and exempt; three-clause and range loops are bounded
//     by construction.
package ctxdelegate

import (
	"go/ast"
	"go/types"
	"strings"

	"sprout/internal/lint/analysis"
)

// Analyzer is the ctxdelegate pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxdelegate",
	Doc:  "internal packages keep one Ctx entry per operation; public context-free wrappers must delegate to their Ctx variant; unbounded loops in route/sparse need a context.Context parameter",
	Run:  run,
}

// loopScopeSuffixes are the package-path suffixes rule 2 applies to.
var loopScopeSuffixes = []string{"internal/route", "internal/sparse"}

func run(pass *analysis.Pass) (any, error) {
	internal := strings.Contains(pass.Pkg.Path(), "/internal/")
	loopScope := false
	for _, s := range loopScopeSuffixes {
		if strings.HasSuffix(pass.Pkg.Path(), s) {
			loopScope = true
			break
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWrapper(pass, f, fd, internal)
			if loopScope {
				checkLoops(pass, fd)
			}
		}
	}
	return nil, nil
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextType(pass.TypesInfo.Types[field.Type].Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkWrapper applies rule 1 to one function declaration.
func checkWrapper(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl, internal bool) {
	if !fd.Name.IsExported() || strings.HasSuffix(fd.Name.Name, "Ctx") || hasCtxParam(pass, fd.Type) {
		return
	}
	ctxName := fd.Name.Name + "Ctx"
	if !siblingExists(pass, file, fd, ctxName) {
		return
	}
	if internal {
		pass.Reportf(fd.Name.Pos(),
			"internal package exports both %s and %s: keep only the ctx-first entry %s",
			fd.Name.Name, ctxName, ctxName)
		return
	}
	if len(fd.Body.List) == 1 && delegates(pass, fd.Body.List[0], ctxName) {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"context-free wrapper %s must only delegate to %s with context.Background() or context.TODO()",
		fd.Name.Name, ctxName)
}

// siblingExists reports whether the package declares name as a function
// with the same receiver base type as fd (or none, when fd has none).
func siblingExists(pass *analysis.Pass, file *ast.File, fd *ast.FuncDecl, name string) bool {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			cand, ok := decl.(*ast.FuncDecl)
			if !ok || cand.Name.Name != name {
				continue
			}
			if recvTypeName(cand) == recvTypeName(fd) {
				return true
			}
		}
	}
	return false
}

// recvTypeName returns the receiver's base type name ("" for functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// delegates reports whether stmt is `return FCtx(context.Background(),
// ...)` (or a bare call for result-free wrappers).
func delegates(pass *analysis.Pass, stmt ast.Stmt, ctxName string) bool {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		if len(s.Results) != 1 {
			return false
		}
		call, _ = s.Results[0].(*ast.CallExpr)
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	}
	if call == nil || calleeName(call) != ctxName || len(call.Args) == 0 {
		return false
	}
	first, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := first.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName)
	return ok && obj.Imported().Path() == "context"
}

// calleeName returns the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// checkLoops applies rule 2 to one function declaration.
func checkLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	if hasCtxParam(pass, fd.Type) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || !unbounded(loop) {
			return true
		}
		pass.Reportf(loop.Pos(),
			"unbounded loop in %s: functions with unbounded loops in %s must accept a context.Context",
			fd.Name.Name, pass.Pkg.Name())
		return true
	})
}

// unbounded classifies `for {}` and condition-only loops as unbounded,
// exempting slice-drain conditions that mention len(...).
func unbounded(loop *ast.ForStmt) bool {
	if loop.Init != nil || loop.Post != nil {
		return false
	}
	if loop.Cond == nil {
		return true
	}
	drains := false
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" {
				drains = true
			}
		}
		return true
	})
	return !drains
}
