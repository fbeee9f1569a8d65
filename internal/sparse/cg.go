package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sprout/internal/faultinject"
)

// ErrNoConvergence is returned when the iterative solver fails to reach the
// requested tolerance within the iteration budget.
var ErrNoConvergence = errors.New("sparse: conjugate gradient did not converge")

// ErrBreakdown is returned (wrapped, with the offending pᵀAp value) when
// the CG recurrence breaks down, which signals a matrix that is not
// symmetric positive definite.
var ErrBreakdown = errors.New("sparse: CG breakdown (matrix not SPD?)")

// ctxCheckStride is how many CG iterations run between context
// cancellation checks; one check per iteration would be noise next to the
// sparse mat-vec, but a stride keeps the response latency bounded.
const ctxCheckStride = 16

// CGStats reports what one CG invocation actually did. The residual is
// captured from the convergence test the iteration already computes, so
// filling the struct adds no arithmetic to the solve.
type CGStats struct {
	// Iterations is the number of iterations performed.
	Iterations int
	// Residual is the last relative residual ‖b-Ax‖/‖b‖ the iteration
	// evaluated (NaN when the solve never reached a residual check).
	Residual float64
}

// CGOptions configures the preconditioned conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖b-Ax‖/‖b‖. Zero selects 1e-10.
	// Negative or NaN values are rejected.
	Tol float64
	// MaxIter caps the iteration count. Zero selects 10*n + 100. Negative
	// values are rejected.
	MaxIter int
	// Precond is the preconditioner diagonal (Jacobi). Nil disables
	// preconditioning.
	Precond []float64
	// Apply, when non-nil, is a general preconditioner dst = M⁻¹r (e.g.
	// IC(0)); it takes precedence over Precond.
	Apply func(dst, r []float64)
	// Stats, when non-nil, receives the iteration count and final
	// residual of the solve — telemetry for the fallback ladder and the
	// observability layer.
	Stats *CGStats
	// Work, when non-nil, supplies the iteration vectors so repeated
	// solves allocate nothing. The returned solution then aliases the
	// workspace and is only valid until its next use. The arithmetic is
	// identical either way — the buffers are fully (re)initialized before
	// use.
	Work *CGWork
}

// validate rejects option values that would loop forever (negative Tol
// never satisfied by a residual check) or never iterate (negative
// MaxIter).
func (o CGOptions) validate() error {
	if o.MaxIter < 0 {
		return fmt.Errorf("sparse: CG MaxIter %d is negative; use 0 for the default budget", o.MaxIter)
	}
	if o.Tol < 0 || math.IsNaN(o.Tol) {
		return fmt.Errorf("sparse: CG Tol %g must be a non-negative number; use 0 for the default 1e-10", o.Tol)
	}
	return nil
}

// CG solves A*x = b without cancellation support; see CGCtx.
func CG(a Matrix, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	return CGCtx(context.Background(), a, b, x0, opt)
}

// CGCtx solves A*x = b for symmetric positive definite A using the
// conjugate gradient method with optional Jacobi preconditioning. x0 seeds
// the iteration when non-nil (warm starts matter: SmartGrow re-solves
// nearly identical systems every iteration). It returns the solution and
// the number of iterations performed. The context is checked periodically;
// on cancellation the iteration aborts and ctx.Err() is returned.
//
// On ErrNoConvergence the best iterate found so far is still returned
// alongside the error, so callers can inspect the residual or hand the
// partial solution to a fallback.
func CGCtx(ctx context.Context, a Matrix, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, 0, fmt.Errorf("sparse: CG rhs dim %d, want %d", len(b), n)
	}
	if err := opt.validate(); err != nil {
		return nil, 0, err
	}
	if err := faultinject.Check(faultinject.SiteCG); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 10*n + 100
	}

	// setStats publishes the telemetry before every return; lastRes is
	// reused from the convergence checks, so this costs nothing extra.
	lastRes := math.NaN()
	setStats := func(iters int) {
		if opt.Stats != nil {
			*opt.Stats = CGStats{Iterations: iters, Residual: lastRes}
		}
	}

	var x, r []float64
	if opt.Work != nil {
		x = vec(&opt.Work.x, n)
		for i := range x {
			x[i] = 0
		}
		r = vec(&opt.Work.r, n)
	} else {
		x = make([]float64, n)
		r = make([]float64, n)
	}
	if x0 != nil {
		copy(x, x0)
	}
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	normB := norm2(b)
	if normB == 0 {
		lastRes = 0
		setStats(0)
		for i := range x {
			x[i] = 0
		}
		return x, 0, nil // b = 0 ⇒ x = 0
	}
	lastRes = norm2(r) / normB
	if lastRes <= tol {
		setStats(0)
		return x, 0, nil
	}

	precond := opt.Apply
	if precond == nil {
		diag := opt.Precond
		precond = func(dst, r []float64) { applyJacobi(dst, r, diag) }
	}
	var z, p, ap []float64
	if opt.Work != nil {
		z = vec(&opt.Work.z, n)
		p = vec(&opt.Work.p, n)
		ap = vec(&opt.Work.ap, n)
	} else {
		z = make([]float64, n)
		p = make([]float64, n)
		ap = make([]float64, n)
	}
	precond(z, r)
	copy(p, z)
	rz := dot(r, z)

	// A *CSR operator takes the fused A·p and pᵀAp pass; any other Matrix
	// runs MulVec then dot. Both sum in the same order, so the iterates are
	// bit-identical either way.
	csr, _ := a.(*CSR)
	for it := 1; it <= maxIter; it++ {
		if it%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				setStats(it)
				return nil, it, err
			}
		}
		var pap float64
		if csr != nil {
			pap = csr.mulVecDot(ap, p)
		} else {
			a.MulVec(ap, p)
			pap = dot(p, ap)
		}
		if pap <= 0 || math.IsNaN(pap) {
			setStats(it)
			return nil, it, fmt.Errorf("sparse: pᵀAp=%g at iteration %d: %w", pap, it, ErrBreakdown)
		}
		lastRes = math.Sqrt(updateXR(x, r, p, ap, rz/pap)) / normB
		if lastRes <= tol {
			setStats(it)
			return x, it, nil
		}
		precond(z, r)
		rzNext := dot(r, z)
		beta := rzNext / rz
		rz = rzNext
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	setStats(maxIter)
	return x, maxIter, ErrNoConvergence
}

// updateXR performs the CG step x += alpha·p, r -= alpha·ap and returns
// rᵀr of the updated residual, accumulated in index order exactly as
// dot(r, r) would after the update. The reslices let the compiler drop
// the per-element bounds checks.
func updateXR(x, r, p, ap []float64, alpha float64) float64 {
	r = r[:len(x)]
	p = p[:len(x)]
	ap = ap[:len(x)]
	s := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		ri := r[i] - alpha*ap[i]
		r[i] = ri
		s += ri * ri
	}
	return s
}

func applyJacobi(dst, r, diag []float64) {
	if diag == nil {
		copy(dst, r)
		return
	}
	for i := range r {
		if diag[i] != 0 {
			dst[i] = r[i] / diag[i]
		} else {
			dst[i] = r[i]
		}
	}
}

func dot(a, b []float64) float64 {
	b = b[:len(a)] // drops the bounds check on b[i]
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}
