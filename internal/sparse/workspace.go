package sparse

// Workspace is reusable scratch for repeated Laplacian solves. One
// workspace serves one goroutine: Laplacian.SolveCtx stages the grounded
// right-hand side, warm start, and solution in it and hands the CG rungs
// their iteration vectors from it, so a steady stream of solves over
// same-sized systems performs no per-solve allocations. The solution slice
// a workspace-backed solve returns aliases the workspace and is only valid
// until the next solve through the same workspace.
type Workspace struct {
	rhs, x0, out []float64
	cg           CGWork
	// st receives the ladder's CG stats. It lives here rather than on the
	// ladder's stack because CGCtx calls the preconditioner through an
	// interface, which leaks the options and so the Stats pointer.
	st CGStats
}

// CGWork is reusable scratch for CGCtx: the iterate, residual,
// preconditioned residual, search direction, and mat-vec product vectors.
// A CGWork serves one CG invocation at a time; the solution CGCtx returns
// aliases it.
type CGWork struct {
	x, r, z, p, ap []float64
}

// vec returns *buf resized to length n, reusing the backing array when
// possible. Contents are unspecified.
func vec(buf *[]float64, n int) []float64 {
	*buf = grow(*buf, n)
	return *buf
}
