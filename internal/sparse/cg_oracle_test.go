package sparse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cgOracle is the unfused preconditioned CG loop, kept as the reference
// CGCtx is pinned to: a separate MulVec, then dot for pᵀAp, then the
// x/r update followed by dot(r, r), on freshly allocated vectors. It reads
// Tol, MaxIter, Precond and Stats from opt and ignores Work.
func cgOracle(a *CSR, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	n := a.N
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 10*n + 100
	}
	lastRes := math.NaN()
	setStats := func(iters int) {
		if opt.Stats != nil {
			*opt.Stats = CGStats{Iterations: iters, Residual: lastRes}
		}
	}

	x := make([]float64, n)
	r := make([]float64, n)
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
		return make([]float64, n), 0, nil
	}
	lastRes = norm2(r) / normB
	if lastRes <= tol {
		setStats(0)
		return x, 0, nil
	}

	precond := func(dst, r []float64) { copy(dst, r) }
	if opt.Precond != nil {
		precond = opt.Precond.Apply
	}
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	precond(z, r)
	copy(p, z)
	rz := dot(r, z)
	for it := 1; it <= maxIter; it++ {
		a.MulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			setStats(it)
			return nil, it, fmt.Errorf("sparse: pᵀAp=%g at iteration %d: %w", pap, it, ErrBreakdown)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		lastRes = norm2(r) / normB
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

// checkCGMatchesOracle solves a*x = b with CGCtx and with cgOracle under
// every preconditioner (IC(0), Jacobi, none), cold and warm-started, and
// through a fresh and a reused workspace; solutions, iteration counts and
// residuals must agree bit for bit.
func checkCGMatchesOracle(t *testing.T, name string, a *CSR, b, warm []float64, reused *CGWork) {
	t.Helper()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pcs := []struct {
		name string
		pc   Preconditioner
	}{{"ic0", ic}, {"jacobi", Jacobi(a.Diag())}, {"none", nil}}
	for _, pc := range pcs {
		for _, x0 := range [][]float64{nil, warm} {
			var wantSt CGStats
			want, wantIt, wantErr := cgOracle(a, b, x0, CGOptions{Precond: pc.pc, Stats: &wantSt})
			if wantIt == 0 {
				t.Fatalf("%s %s: the solve ran no iteration; the comparison is vacuous", name, pc.name)
			}
			for _, work := range []*CGWork{nil, reused} {
				what := fmt.Sprintf("%s %s warm=%v reused=%v", name, pc.name, x0 != nil, work != nil)
				var st CGStats
				x, it, err := CGCtx(context.Background(), a, b, x0, CGOptions{Precond: pc.pc, Stats: &st, Work: work})
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: err %v, oracle %v", what, err, wantErr)
				}
				if it != wantIt || st.Iterations != wantSt.Iterations {
					t.Fatalf("%s: %d iterations, oracle %d", what, it, wantIt)
				}
				if math.Float64bits(st.Residual) != math.Float64bits(wantSt.Residual) {
					t.Fatalf("%s: residual %x, oracle %x", what, st.Residual, wantSt.Residual)
				}
				if len(x) != len(want) {
					t.Fatalf("%s: len(x) %d, oracle %d", what, len(x), len(want))
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: x[%d] %x, oracle %x", what, i, x[i], want[i])
					}
				}
			}
		}
	}
}

// randomGroundedSystem draws a connected weighted graph, grounds it at a
// random node, and returns the grounded matrix with a random right-hand
// side and warm start.
func randomGroundedSystem(t *testing.T, r *rand.Rand, n int, seed int64) (*CSR, []float64, []float64) {
	t.Helper()
	lap, err := newLaplacian(n, randomConnectedEdges(n, r.Intn(3*n), seed), r.Intn(n))
	if err != nil {
		t.Fatal(err)
	}
	a := lap.Matrix()
	b, warm := make([]float64, a.N), make([]float64, a.N)
	for i := range b {
		b[i] = r.NormFloat64()
		warm[i] = r.NormFloat64()
	}
	return a, b, warm
}

// TestCGMatchesOracle pins CGCtx's fused *CSR iteration to the unfused
// reference loop on seeded random grounded Laplacians. The reused
// workspace carries the previous system's vectors, of other sizes.
func TestCGMatchesOracle(t *testing.T) {
	reused := &CGWork{}
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(400)
		a, b, warm := randomGroundedSystem(t, r, n, seed)
		checkCGMatchesOracle(t, fmt.Sprintf("seed=%d n=%d", seed, n), a, b, warm, reused)
	}
}

// FuzzCGMatchesOracle runs the oracle comparison on fuzzer-chosen graph
// seeds and sizes. Explore with `go test -fuzz=FuzzCGMatchesOracle`.
func FuzzCGMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(7), uint8(60))
	f.Add(int64(-3), uint8(255))
	reused := &CGWork{}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(size)
		a, b, warm := randomGroundedSystem(t, r, n, seed)
		checkCGMatchesOracle(t, fmt.Sprintf("seed=%d n=%d", seed, n), a, b, warm, reused)
	})
}
