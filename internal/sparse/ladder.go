package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"sprout/internal/obs"
)

// Rung names of the solver fallback ladder, in escalation order.
const (
	// RungCG is the primary attempt: CG with the IC(0) preconditioner
	// (Jacobi when the factorization was unavailable) at the default
	// tolerance, warm-started when the caller has a previous solution.
	RungCG = "cg-ic0"
	// RungCGAMG is a retired rung: no solve reports it; perfbench declares its metric.
	RungCGAMG = "cg-amg"
	// RungCGRelaxed retries cold with plain Jacobi preconditioning, a
	// relaxed tolerance and a doubled iteration budget. It recovers cases
	// where a stale IC(0) factor or a bad warm start stalls the primary
	// attempt.
	RungCGRelaxed = "cg-jacobi-relaxed"
	// RungDense is the last resort for small systems: a dense Cholesky
	// factorization, immune to iterative stagnation.
	RungDense = "dense-cholesky"
)

// relaxedTol is the tolerance of rung 2, the relaxed Jacobi-CG retry,
// whatever the system size. Node-current ranking and effective
// resistances are stable well above this accuracy, so a relaxed solve is
// preferable to no solve.
const relaxedTol = 1e-7

// denseFallbackMax is the largest grounded-system dimension the dense
// Cholesky rung accepts (n² floats of scratch; 2048² ≈ 32 MB). A variable
// so tests can exercise the "system too large" path cheaply.
var denseFallbackMax = 2048

// RungAttempt records one rung of the fallback ladder.
type RungAttempt struct {
	// Rung is the name of one of the ladder's three rungs, in escalation
	// order RungCG, RungCGRelaxed, RungDense.
	Rung string
	// Iterations is the iteration count the rung spent (0 for dense).
	Iterations int
	// Residual is the relative residual ‖b-Ax‖/‖b‖ the rung achieved;
	// NaN when the rung produced no iterate at all.
	Residual float64
	// Err is why the rung was rejected.
	Err error
}

// SolveError reports that every rung of the solver fallback ladder failed.
// It carries the per-rung diagnostics so callers (and bug reports) can see
// how far each attempt got.
type SolveError struct {
	// Attempts lists the rungs tried, in order.
	Attempts []RungAttempt
	// Iterations is the total iteration count across all rungs.
	Iterations int
	// Residual is the best relative residual achieved by any rung.
	Residual float64
	// Err is the error from the last rung attempted.
	Err error
}

// Error formats the ladder trace: which rungs ran, their iteration counts
// and residuals, and the final error.
func (e *SolveError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sparse: all %d solver rungs failed (total %d iterations, best residual %.3g):",
		len(e.Attempts), e.Iterations, e.Residual)
	for _, a := range e.Attempts {
		fmt.Fprintf(&b, " [%s: %d it, res %.3g: %v]", a.Rung, a.Iterations, a.Residual, a.Err)
	}
	return b.String()
}

// Unwrap exposes the last rung's error for errors.Is/As.
func (e *SolveError) Unwrap() error { return e.Err }

// relResidual computes ‖b-Ax‖/‖b‖ (NaN when x is nil or b is zero).
func relResidual(a *CSR, b, x []float64) float64 {
	if x == nil {
		return math.NaN()
	}
	normB := norm2(b)
	if normB == 0 {
		return math.NaN()
	}
	r := make([]float64, len(b))
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return norm2(r) / normB
}

// solveLadder runs the fallback ladder on the grounded system mat*x = rhs.
// x0 optionally warm-starts the first rung. Context cancellation aborts
// the ladder immediately — a cancelled solve is not a solver fault. ws
// supplies the CG iteration vectors; the returned solution may alias it.
//
// The returned attempts list every rung tried, in order; on success the
// final attempt is the accepted rung with a nil Err and the residual the
// solve actually achieved, so callers see degraded-but-recovered solves
// without a SolveError.
func (l *Laplacian) solveLadder(ctx context.Context, rhs, x0 []float64, ws *Workspace) ([]float64, []RungAttempt, error) {
	mat, cgw, st := l.mat, &ws.cg, &ws.st
	var attempts []RungAttempt
	totalIters := 0
	bestRes := math.NaN()
	note := func(rung string, iters int, res float64, err error) {
		attempts = append(attempts, RungAttempt{Rung: rung, Iterations: iters, Residual: res, Err: err})
		totalIters += iters
		if !math.IsNaN(res) && (math.IsNaN(bestRes) || res < bestRes) {
			bestRes = res
		}
	}

	// Rung 1: CG with IC(0) (Jacobi when IC(0) broke down at assembly).
	opt := CGOptions{Stats: st, Work: cgw}
	if l.ic != nil {
		opt.Precond = l.ic
	} else {
		opt.Precond = Jacobi(l.diag)
	}
	x, iters, err := CGCtx(ctx, mat, rhs, x0, opt)
	if err == nil {
		note(RungCG, iters, st.Residual, nil)
		return x, attempts, nil
	}
	if ctxErr(err) {
		return nil, attempts, err
	}
	note(RungCG, iters, relResidual(mat, rhs, x), err)
	// Escalation is rare, so the event cost never lands on the happy
	// path; the trace makes recovered-but-degraded solves visible.
	obs.Event(ctx, "solver.escalate",
		obs.A("from", RungCG), obs.A("iterations", iters))

	// Rung 2: cold restart, plain Jacobi, relaxed tolerance, doubled
	// budget. A fresh Krylov space sidesteps warm-start or IC(0)
	// pathologies; the relaxed tolerance accepts solves that stalled just
	// short of the default.
	n := mat.N
	x, iters, err = CGCtx(ctx, mat, rhs, nil, CGOptions{
		Tol:     relaxedTol,
		MaxIter: 20*n + 200,
		Precond: Jacobi(l.diag),
		Stats:   st,
		Work:    cgw,
	})
	if err == nil {
		note(RungCGRelaxed, iters, st.Residual, nil)
		return x, attempts, nil
	}
	if ctxErr(err) {
		return nil, attempts, err
	}
	note(RungCGRelaxed, iters, relResidual(mat, rhs, x), err)
	obs.Event(ctx, "solver.escalate",
		obs.A("from", RungCGRelaxed), obs.A("iterations", iters))

	// Rung 3: dense Cholesky for small systems.
	if n <= denseFallbackMax {
		ch, cerr := mat.Dense().Cholesky()
		if cerr == nil {
			x = ch.Solve(rhs)
			res := relResidual(mat, rhs, x)
			if !math.IsNaN(res) && res <= relaxedTol*10 {
				note(RungDense, 0, res, nil)
				return x, attempts, nil
			}
			cerr = fmt.Errorf("sparse: dense fallback residual %.3g exceeds %.3g", res, relaxedTol*10)
			note(RungDense, 0, res, cerr)
		} else {
			note(RungDense, 0, math.NaN(), cerr)
		}
	} else {
		note(RungDense, 0, math.NaN(), fmt.Errorf("sparse: system dim %d exceeds dense fallback cap %d", n, denseFallbackMax))
	}

	last := attempts[len(attempts)-1].Err
	return nil, attempts, &SolveError{
		Attempts:   attempts,
		Iterations: totalIters,
		Residual:   bestRes,
		Err:        last,
	}
}

// ctxErr reports whether err is a context cancellation or deadline.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
