// Package a exercises the discarded-result rule against the real
// sprout/internal/geom and sprout/internal/sparse kernels.
package a

import (
	"sprout/internal/geom"
	"sprout/internal/route"
	"sprout/internal/sparse"
)

// DropClip discards a pure region operation: flagged.
func DropClip(a, b geom.Region) {
	a.Union(b) // want `result of geom.Union discarded`
}

// BlankClip hides the result behind the blank identifier: flagged.
func BlankClip(a, b geom.Region) {
	_ = a.Intersect(b) // want `result of geom.Intersect assigned to the blank identifier`
}

// UseClip is the accepted fix: the result flows onward.
func UseClip(a, b geom.Region) geom.Region {
	return a.Subtract(b)
}

// DropSolve throws away both the solution and the convergence error: flagged.
func DropSolve(m *sparse.CSR, rhs []float64) {
	sparse.CGCtx(nil, m, rhs, nil, sparse.CGOptions{}) // want `result of sparse.CGCtx discarded`
}

// BlankSolve discards every result explicitly: flagged.
func BlankSolve(m *sparse.CSR, rhs []float64) {
	_, _, _ = sparse.CGCtx(nil, m, rhs, nil, sparse.CGOptions{}) // want `result of sparse.CGCtx assigned to the blank identifier`
}

// UseSolve is the accepted fix: solution and error are consumed.
func UseSolve(m *sparse.CSR, rhs []float64) ([]float64, error) {
	x, _, err := sparse.CGCtx(nil, m, rhs, nil, sparse.CGOptions{})
	return x, err
}

// DropWorkspaceSolve loses the session-path solve and its ladder trace:
// flagged.
func DropWorkspaceSolve(l *sparse.Laplacian, rhs []float64, ws *sparse.Workspace) {
	l.SolveCtx(nil, rhs, nil, ws) // want `result of sparse.SolveCtx discarded`
}

// DropReassemble throws away both the assembled Laplacian and the
// validation error: flagged.
func DropReassemble(l *sparse.Laplacian, rowPtr, col []int, w []float64) {
	_, _ = sparse.ReassembleLaplacian(l, rowPtr, col, w, 0) // want `result of sparse.ReassembleLaplacian assigned to the blank identifier`
}

// DropNodeCurrents loses the metric evaluation and its error: flagged.
func DropNodeCurrents(tg *route.TileGraph, members []bool) {
	tg.NodeCurrentsCtx(nil, members, nil) // want `result of route.NodeCurrentsCtx discarded`
}

// BlankPairVoltages hides the pair solutions and their error: flagged.
func BlankPairVoltages(tg *route.TileGraph, members []bool) {
	_, _, _, _ = tg.PairVoltagesCtx(nil, members) // want `result of route.PairVoltagesCtx assigned to the blank identifier`
}

// UseNodeCurrents is the accepted fix: metrics and error are consumed.
func UseNodeCurrents(tg *route.TileGraph, members []bool) (*route.Metrics, error) {
	return tg.NodeCurrentsCtx(nil, members, nil)
}

// MutatorsAreFine: functions outside the must-use table keep working as
// statements.
func MutatorsAreFine(m *sparse.CSR, dst, x []float64) {
	m.MulVec(dst, x)
}
