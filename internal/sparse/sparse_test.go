package sparse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sprout/internal/graph"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestBuilderAccumulates(t *testing.T) {
	b := newBuilder(3)
	b.add(0, 1, 2)
	b.add(0, 1, 3)
	b.add(2, 2, -1)
	b.add(1, 0, 4)
	m := b.build()
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("duplicate accumulation: got %g, want 5", got)
	}
	if got := m.At(1, 0); got != 4 {
		t.Fatalf("At(1,0) = %g, want 4", got)
	}
	if got := m.At(2, 2); got != -1 {
		t.Fatalf("At(2,2) = %g, want -1", got)
	}
	if got := m.At(2, 0); got != 0 {
		t.Fatalf("missing entry must read 0, got %g", got)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
}

func TestBuilderDropsCancelledZeros(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1.5)
	b.add(0, 0, -1.5)
	b.add(1, 1, 2)
	m := b.build()
	if m.NNZ() != 1 {
		t.Fatalf("cancelled entry must be dropped, nnz = %d", m.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range add")
		}
	}()
	newBuilder(2).add(2, 0, 1)
}

func TestCSRMulVec(t *testing.T) {
	// [2 1; 0 3] * [1 2] = [4 6]
	b := newBuilder(2)
	b.add(0, 0, 2)
	b.add(0, 1, 1)
	b.add(1, 1, 3)
	m := b.build()
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 2})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("MulVec = %v, want [4 6]", dst)
	}
}

func TestDenseCholeskySolve(t *testing.T) {
	// SPD matrix [4 2; 2 3], b = [8 7] -> x = [1.25, 1.5]
	d := NewDense(2)
	d.Set(0, 0, 4)
	d.Set(0, 1, 2)
	d.Set(1, 0, 2)
	d.Set(1, 1, 3)
	ch, err := d.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve([]float64{8, 7})
	if !almostEq(x[0], 1.25, 1e-12) || !almostEq(x[1], 1.5, 1e-12) {
		t.Fatalf("solve = %v, want [1.25 1.5]", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 0, 1)
	d.Set(1, 1, -1)
	if _, err := d.Cholesky(); err == nil {
		t.Fatal("indefinite matrix must be rejected")
	}
}

// denseCSR stores the nonzeros of a dense matrix in CSR form.
func denseCSR(d *Dense) *CSR {
	b := newBuilder(d.N)
	for r := 0; r < d.N; r++ {
		for c := 0; c < d.N; c++ {
			if v := d.At(r, c); v != 0 {
				b.add(r, c, v)
			}
		}
	}
	return b.build()
}

func TestCGMatchesCholesky(t *testing.T) {
	// Random SPD system A = Mᵀ M + I; CG and Cholesky must agree.
	rng := rand.New(rand.NewSource(17))
	n := 30
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			d.Addd(i, j, v)
		}
	}
	// A = L Lᵀ + n*I (SPD by construction).
	a := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += d.At(i, k) * d.At(j, k)
			}
			a.Set(i, j, s)
		}
		a.Addd(i, i, float64(n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ch, err := a.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	want := ch.Solve(b)
	got, iters, err := CGCtx(context.Background(), denseCSR(a), b, nil, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("CG should iterate for a random rhs")
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-8) {
			t.Fatalf("x[%d]: CG %g vs Cholesky %g", i, got[i], want[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1)
	b.add(1, 1, 1)
	x, iters, err := CGCtx(context.Background(), b.build(), []float64{0, 0}, nil, CGOptions{})
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs: err=%v iters=%d", err, iters)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero rhs must give zero solution, got %v", x)
	}
}

func TestCGWarmStart(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 2)
	b.add(1, 1, 5)
	m := b.build()
	rhs := []float64{4, 10}
	exact := []float64{2, 2}
	_, cold, err := CGCtx(context.Background(), m, rhs, nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := CGCtx(context.Background(), m, rhs, exact, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm != 0 {
		t.Fatalf("warm start at the solution must take 0 iterations, took %d", warm)
	}
	if cold == 0 {
		t.Fatal("cold start must iterate")
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1)
	b.add(1, 1, 1)
	if _, _, err := CGCtx(context.Background(), b.build(), []float64{1}, nil, CGOptions{}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	b := newBuilder(2)
	b.add(0, 0, 1)
	b.add(1, 1, -2)
	if _, _, err := CGCtx(context.Background(), b.build(), []float64{0, 1}, nil, CGOptions{}); err == nil {
		t.Fatal("CG must report breakdown on an indefinite matrix")
	}
}

func TestLaplacianSeriesResistors(t *testing.T) {
	// 0 -1Ω- 1 -1Ω- 2: R(0,2) = 2.
	lap, err := newLaplacian(3, []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := lap.effectiveResistance(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 2, 1e-9) {
		t.Fatalf("series resistance = %g, want 2", r)
	}
}

func TestLaplacianParallelResistors(t *testing.T) {
	// Two 1Ω conductors in parallel between 0 and 1: R = 0.5.
	lap, err := newLaplacian(2, []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 0, V: 1, Weight: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := lap.effectiveResistance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 0.5, 1e-9) {
		t.Fatalf("parallel resistance = %g, want 0.5", r)
	}
}

func TestLaplacianWheatstoneBridge(t *testing.T) {
	// Balanced Wheatstone bridge, all 1Ω: R(s,t) = 1.
	// s=0, t=3, mid nodes 1, 2, bridge 1-2.
	edges := []graph.Edge{
		{U: 0, V: 1, Weight: 1}, {U: 0, V: 2, Weight: 1}, {U: 1, V: 3, Weight: 1}, {U: 2, V: 3, Weight: 1}, {U: 1, V: 2, Weight: 1},
	}
	lap, err := newLaplacian(4, edges, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := lap.effectiveResistance(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-9) {
		t.Fatalf("balanced bridge resistance = %g, want 1", r)
	}
}

func TestLaplacianGridAgainstCholesky(t *testing.T) {
	// 5x5 grid graph, unit conductances: CG solve must match the dense
	// Cholesky solve of the grounded Laplacian.
	const w, h = 5, 5
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
	ground := id(w-1, h-1)
	lap, err := newLaplacian(w*h, edges, ground)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, w*h)
	b[id(0, 0)] = 1
	b[ground] = -1
	got, _, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := lap.Matrix().Dense().Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, w*h-1)
	rhs[0] = 1 // node (0,0) maps to grounded index 0
	want := ch.Solve(rhs)
	for gi, node := 0, 0; node < w*h; node++ {
		if node == ground {
			continue
		}
		if !almostEq(got[node], want[gi], 1e-7) {
			t.Fatalf("node %d: CG %g vs Cholesky %g", node, got[node], want[gi])
		}
		gi++
	}
}

func TestLaplacianRejectsBadInput(t *testing.T) {
	if _, err := newLaplacian(1, nil, 0); err == nil {
		t.Fatal("n=1 must be rejected")
	}
	if _, err := newLaplacian(3, nil, 5); err == nil {
		t.Fatal("ground out of range must be rejected")
	}
	if _, err := newLaplacian(3, []graph.Edge{{U: 0, V: 0, Weight: 1}}, 0); err == nil {
		t.Fatal("self loop must be rejected")
	}
	if _, err := newLaplacian(3, []graph.Edge{{U: 0, V: 1, Weight: -2}}, 0); err == nil {
		t.Fatal("negative weight must be rejected")
	}
	if _, err := newLaplacian(3, []graph.Edge{{U: 0, V: 7, Weight: 1}}, 0); err == nil {
		t.Fatal("out-of-range edge must be rejected")
	}
}

func TestQuickEffectiveResistanceTriangleInequality(t *testing.T) {
	// Effective resistance is a metric: R(a,c) <= R(a,b) + R(b,c).
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 4 + rng.Intn(5)
		var edges []graph.Edge
		// Ring to guarantee connectivity, plus random chords.
		for i := 0; i < n; i++ {
			edges = append(edges, graph.Edge{U: i, V: (i + 1) % n, Weight: 0.5 + rng.Float64()})
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, Weight: 0.5 + rng.Float64()})
			}
		}
		lap, err := newLaplacian(n, edges, 0)
		if err != nil {
			return false
		}
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		rab, err1 := lap.effectiveResistance(a, b)
		rbc, err2 := lap.effectiveResistance(b, c)
		rac, err3 := lap.effectiveResistance(a, c)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return rac <= rab+rbc+1e-9
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRayleighMonotonicity(t *testing.T) {
	// Adding an edge can only decrease effective resistance.
	rng := rand.New(rand.NewSource(25))
	f := func() bool {
		n := 4 + rng.Intn(4)
		var edges []graph.Edge
		for i := 0; i < n; i++ {
			edges = append(edges, graph.Edge{U: i, V: (i + 1) % n, Weight: 0.5 + rng.Float64()})
		}
		lap1, err := newLaplacian(n, edges, 0)
		if err != nil {
			return false
		}
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		more := append(append([]graph.Edge(nil), edges...), graph.Edge{U: u, V: v, Weight: 1})
		lap2, err := newLaplacian(n, more, 0)
		if err != nil {
			return false
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		r1, err1 := lap1.effectiveResistance(s, tt)
		r2, err2 := lap2.effectiveResistance(s, tt)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2 <= r1+1e-9
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(26))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDenseMulVecMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := newBuilder(8)
	for k := 0; k < 20; k++ {
		b.add(rng.Intn(8), rng.Intn(8), rng.NormFloat64())
	}
	m := b.build()
	d := m.Dense()
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 8)
	y2 := make([]float64, 8)
	m.MulVec(y1, x)
	d.mulVec(y2, x)
	for i := range y1 {
		if !almostEq(y1[i], y2[i], 1e-12) {
			t.Fatalf("CSR vs Dense MulVec differ at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

// effectiveResistance returns the two-terminal effective resistance between
// nodes s and t: inject +1 A at s, -1 A at t, and report V(s) - V(t).
func (l *Laplacian) effectiveResistance(s, t int) (float64, error) {
	if s == t {
		return 0, nil
	}
	if s < 0 || s >= l.n || t < 0 || t >= l.n {
		return 0, fmt.Errorf("sparse: effective resistance nodes (%d,%d) out of range", s, t)
	}
	b := make([]float64, l.n)
	b[s] = 1
	b[t] = -1
	v, _, err := l.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		return 0, err
	}
	return v[s] - v[t], nil
}

// mulVec computes dst = A*x, the dense reference for CSR.MulVec.
func (d *Dense) mulVec(dst, x []float64) {
	for r := 0; r < d.N; r++ {
		sum := 0.0
		row := d.A[r*d.N : (r+1)*d.N]
		for c, v := range row {
			sum += v * x[c]
		}
		dst[r] = sum
	}
}
