package sparse

import (
	"context"
	"math"
	"testing"

	"sprout/internal/graph"
)

// gridLaplacianCSR builds the grounded Laplacian CSR of a w x h unit grid.
func gridLaplacianCSR(t *testing.T, w, h int) (*CSR, []float64, *Laplacian) {
	t.Helper()
	id := func(x, y int) int { return y*w + x }
	var edges []graph.Edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, graph.Edge{U: id(x, y), V: id(x+1, y), Weight: 1})
			}
			if y+1 < h {
				edges = append(edges, graph.Edge{U: id(x, y), V: id(x, y+1), Weight: 1})
			}
		}
	}
	lap, err := newLaplacian(w*h, edges, w*h-1)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, w*h-1)
	rhs[0] = 1
	return lap.Matrix(), rhs, lap
}

func TestIC0DiagonalMatrix(t *testing.T) {
	b := newBuilder(3)
	b.add(0, 0, 4)
	b.add(1, 1, 9)
	b.add(2, 2, 16)
	ic, err := NewIC0(b.build())
	if err != nil {
		t.Fatal(err)
	}
	// Apply on a diagonal matrix is exact: dst = r / diag.
	dst := make([]float64, 3)
	ic.Apply(dst, []float64{4, 9, 32})
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("apply = %v, want %v", dst, want)
		}
	}
}

func TestIC0ExactOnTridiagonal(t *testing.T) {
	// For a tridiagonal SPD matrix IC(0) has no dropped fill, so the
	// factorization is exact and Apply solves the system.
	n := 12
	b := newBuilder(n)
	for i := 0; i < n; i++ {
		b.add(i, i, 2.5)
		if i+1 < n {
			b.add(i, i+1, -1)
			b.add(i+1, i, -1)
		}
	}
	m := b.build()
	ic, err := NewIC0(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	rhs[0], rhs[n-1] = 1, -2
	got := make([]float64, n)
	ic.Apply(got, rhs)
	ch, err := m.Dense().Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	want := ch.Solve(rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestIC0RejectsMissingDiagonal(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 1, -1) // no diagonal entries
	b.add(1, 0, -1)
	if _, err := NewIC0(b.build()); err == nil {
		t.Fatal("missing diagonal must error")
	}
}

func TestIC0RejectsIndefinite(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1)
	b.add(1, 1, -1)
	if _, err := NewIC0(b.build()); err == nil {
		t.Fatal("indefinite matrix must break down")
	}
}

func TestIC0BeatsJacobiOnGrid(t *testing.T) {
	m, rhs, _ := gridLaplacianCSR(t, 30, 30)
	_, itJacobi, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{Precond: Jacobi(m.Diag())})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIC0(m)
	if err != nil {
		t.Fatal(err)
	}
	_, itIC, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	if itIC >= itJacobi {
		t.Fatalf("IC(0) should converge faster: %d vs %d iterations", itIC, itJacobi)
	}
}

func TestIC0SolutionMatchesJacobi(t *testing.T) {
	m, rhs, _ := gridLaplacianCSR(t, 15, 10)
	xJ, _, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{Precond: Jacobi(m.Diag()), Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIC0(m)
	if err != nil {
		t.Fatal(err)
	}
	xI, _, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{Precond: ic, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xJ {
		if math.Abs(xJ[i]-xI[i]) > 1e-8 {
			t.Fatalf("x[%d]: %g vs %g", i, xJ[i], xI[i])
		}
	}
}

func TestLaplacianUsesIC0(t *testing.T) {
	// The Laplacian constructor should pick up IC(0); its solves stay
	// correct (series chain oracle).
	lap, err := newLaplacian(4, []graph.Edge{{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 2}, {U: 2, V: 3, Weight: 2}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lap.ic == nil {
		t.Fatal("laplacian should carry an IC(0) preconditioner")
	}
	r, err := lap.effectiveResistance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1.5) > 1e-9 {
		t.Fatalf("R = %g, want 1.5 (three 0.5Ω in series)", r)
	}
}
