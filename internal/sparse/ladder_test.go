package sparse

import (
	"context"
	"errors"
	"math"
	"testing"

	"sprout/internal/faultinject"
	"sprout/internal/graph"
)

// gridLaplacian builds a w x h grid-graph Laplacian with unit conductances
// grounded at node 0, plus a matching rhs injecting +1 at the far corner.
func gridLaplacian(t *testing.T, w, h int) (*Laplacian, []float64) {
	t.Helper()
	n := w * h
	var edges []graph.Edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				edges = append(edges, graph.Edge{U: id, V: id + 1, Weight: 1})
			}
			if y+1 < h {
				edges = append(edges, graph.Edge{U: id, V: id + w, Weight: 1})
			}
		}
	}
	lap, err := newLaplacian(n, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	b[n-1] = 1
	b[0] = -1
	return lap, b
}

// denseOracle solves the grounded system of lap, grounded at node ground,
// with dense Cholesky.
func denseOracle(t *testing.T, lap *Laplacian, b []float64, ground int) []float64 {
	t.Helper()
	rhs := make([]float64, len(b)-1)
	gi := 0
	for node := 0; node < len(b); node++ {
		if node == ground {
			continue
		}
		rhs[gi] = b[node]
		gi++
	}
	ch, err := lap.Matrix().Dense().Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(rhs)
	out := make([]float64, len(b))
	gi = 0
	for node := 0; node < len(b); node++ {
		if node == ground {
			continue
		}
		out[node] = x[gi]
		gi++
	}
	return out
}

func TestCGRejectsNegativeOptions(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1)
	b.add(1, 1, 1)
	m := b.build()
	rhs := []float64{1, 1}
	if _, _, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{MaxIter: -1}); err == nil {
		t.Fatal("negative MaxIter must be rejected")
	}
	if _, _, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{Tol: -1e-9}); err == nil {
		t.Fatal("negative Tol must be rejected")
	}
	if _, _, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{Tol: math.NaN()}); err == nil {
		t.Fatal("NaN Tol must be rejected")
	}
}

func TestCGBreakdownIsTyped(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1)
	b.add(1, 1, -2)
	_, _, err := CGCtx(context.Background(), b.build(), []float64{0, 1}, nil, CGOptions{})
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("indefinite matrix: want ErrBreakdown, got %v", err)
	}
}

func TestCGNoConvergenceReturnsBestIterate(t *testing.T) {
	lap, b := gridLaplacian(t, 12, 12)
	rhs := make([]float64, len(b)-1)
	for i := range rhs {
		rhs[i] = b[i+1] // ground is node 0
	}
	x, iters, err := CGCtx(context.Background(), lap.Matrix(), rhs, nil, CGOptions{MaxIter: 2, Tol: 1e-14})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if iters != 2 {
		t.Fatalf("iters = %d, want the MaxIter budget 2", iters)
	}
	if x == nil {
		t.Fatal("non-convergence must still return the best iterate")
	}
}

func TestCGCancelledContext(t *testing.T) {
	lap, b := gridLaplacian(t, 16, 16)
	rhs := make([]float64, len(b)-1)
	for i := range rhs {
		rhs[i] = b[i+1]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := CGCtx(ctx, lap.Matrix(), rhs, nil, CGOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: want context.Canceled, got %v", err)
	}
}

func TestLadderRecoversFromInjectedNoConvergence(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lap, b := gridLaplacian(t, 10, 10)
	want := denseOracle(t, lap, b, 0)

	// Rung 1's CG call fails with forced non-convergence; rung 2 must
	// recover with the relaxed retry.
	faultinject.Arm(faultinject.SiteCG, 1, func() error { return ErrNoConvergence })
	got, _, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	if calls := faultinject.Calls(faultinject.SiteCG); calls < 2 {
		t.Fatalf("expected a second CG attempt, saw %d calls", calls)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-5) {
			t.Fatalf("x[%d]: ladder %g vs oracle %g", i, got[i], want[i])
		}
	}
}

// TestLadderRelaxedRungRecoversLargeSystem pins the three-rung shape on a
// system of 575 unknowns: when the primary rung fails, the relaxed
// Jacobi-CG retry is the next rung at every size, and its answer agrees
// with the dense oracle.
func TestLadderRelaxedRungRecoversLargeSystem(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lap, b := gridLaplacian(t, 24, 24)
	want := denseOracle(t, lap, b, 0)

	faultinject.Arm(faultinject.SiteCG, 1, func() error { return ErrNoConvergence })
	got, attempts, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	if len(attempts) != 2 {
		t.Fatalf("attempts = %+v, want failed %s then accepted %s", attempts, RungCG, RungCGRelaxed)
	}
	if attempts[0].Rung != RungCG || attempts[0].Err == nil {
		t.Fatalf("attempt 0 = %+v, want failed %s", attempts[0], RungCG)
	}
	if attempts[1].Rung != RungCGRelaxed || attempts[1].Err != nil {
		t.Fatalf("attempt 1 = %+v, want accepted %s", attempts[1], RungCGRelaxed)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-6) {
			t.Fatalf("x[%d]: ladder %g vs oracle %g", i, got[i], want[i])
		}
	}
}

func TestLadderFallsBackToDenseCholesky(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lap, b := gridLaplacian(t, 10, 10)
	want := denseOracle(t, lap, b, 0)

	// Every CG invocation fails: both iterative rungs are exhausted and
	// only the dense rung can deliver.
	faultinject.Arm(faultinject.SiteCG, 0, func() error { return ErrNoConvergence })
	got, _, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		t.Fatalf("dense fallback did not recover: %v", err)
	}
	if calls := faultinject.Calls(faultinject.SiteCG); calls != 2 {
		t.Fatalf("CG calls = %d, want exactly the two iterative rungs", calls)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-5) {
			t.Fatalf("x[%d]: dense fallback %g vs oracle %g", i, got[i], want[i])
		}
	}
}

func TestLadderSolveErrorCarriesRungTrace(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	old := denseFallbackMax
	denseFallbackMax = 1 // force the "system too large for dense" path
	defer func() { denseFallbackMax = old }()

	lap, b := gridLaplacian(t, 6, 6)
	faultinject.Arm(faultinject.SiteCG, 0, func() error { return ErrNoConvergence })
	_, _, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err == nil {
		t.Fatal("all rungs failing must surface an error")
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("want *SolveError, got %T: %v", err, err)
	}
	if len(se.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3 rungs", len(se.Attempts))
	}
	wantRungs := []string{RungCG, RungCGRelaxed, RungDense}
	for i, a := range se.Attempts {
		if a.Rung != wantRungs[i] {
			t.Fatalf("attempt %d rung = %q, want %q", i, a.Rung, wantRungs[i])
		}
		if a.Err == nil {
			t.Fatalf("attempt %d has no error", i)
		}
	}
	if !errors.Is(err, se.Err) {
		t.Fatal("SolveError must unwrap to the last rung error")
	}
}

func TestWarmStartNearSingularLaplacian(t *testing.T) {
	// Two 4x4 grids joined by one very weak edge: the grounded Laplacian is
	// near-singular (condition number ~1/1e-9), the regime where warm
	// starts historically produced stale answers.
	w, h := 4, 4
	n := 2 * w * h
	var edges []graph.Edge
	block := func(off int) {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				id := off + y*w + x
				if x+1 < w {
					edges = append(edges, graph.Edge{U: id, V: id + 1, Weight: 1})
				}
				if y+1 < h {
					edges = append(edges, graph.Edge{U: id, V: id + w, Weight: 1})
				}
			}
		}
	}
	block(0)
	block(w * h)
	edges = append(edges, graph.Edge{U: w*h - 1, V: w * h, Weight: 1e-9}) // weak bridge
	lap, err := newLaplacian(n, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	b[0] = -1
	b[n-1] = 1
	want := denseOracle(t, lap, b, 0)

	cold, _, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	warm, _, err := lap.SolveCtx(context.Background(), b, cold, nil)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	// The voltage across the weak bridge dominates; compare against the
	// dense oracle in relative terms.
	for i := range want {
		if !almostEq(cold[i], want[i], 1e-4) {
			t.Fatalf("cold x[%d]: %g vs oracle %g", i, cold[i], want[i])
		}
		if !almostEq(warm[i], want[i], 1e-4) {
			t.Fatalf("warm x[%d]: %g vs oracle %g", i, warm[i], want[i])
		}
	}
}
