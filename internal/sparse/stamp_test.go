package sparse

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sprout/internal/graph"
)

// randomSimpleEdges builds a connected simple graph on n nodes, a random
// spanning chain plus distinct chords, with weights drawn by weight.
// Deterministic per seed.
func randomSimpleEdges(n, extra int, seed int64, weight func(*rand.Rand) float64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var edges []graph.Edge
	add := func(u, v int) {
		key := [2]int{min(u, v), max(u, v)}
		if u == v || seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: u, V: v, Weight: weight(rng)})
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v)
	}
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return edges
}

// dyadicWeight draws from {0.25, 0.5, ..., 2}: every diagonal sum of a
// test graph is exact in any order, like the route-pitch conductances 1
// and 0.5 of a tile graph.
func dyadicWeight(rng *rand.Rand) float64 { return float64(1+rng.Intn(8)) / 4 }

// arbitraryWeight draws weights whose sums round.
func arbitraryWeight(rng *rand.Rand) float64 { return 0.05 + rng.Float64() }

// checkStamp compares got, stamped from the adjacency, with the Laplacian
// ReassembleLaplacian assembles from it into fresh storage. With exact
// diagonal sums the two must match bit for bit, solve included. Otherwise
// the structure and off-diagonals must match bit for bit, and each
// diagonal must be the row's conductances summed in column order.
func checkStamp(t *testing.T, what string, got *Laplacian, rowPtr, col []int, w []float64, ground int, exact bool) {
	t.Helper()
	want, err := ReassembleLaplacian(nil, rowPtr, col, w, ground)
	if err != nil {
		t.Fatalf("%s: ReassembleLaplacian: %v", what, err)
	}
	if exact {
		sameLaplacian(t, what, got, want)
		b := make([]float64, got.n)
		b[got.n-1] = 1
		b[0] = -1
		xg, ag, err := got.SolveCtx(context.Background(), b, nil, nil)
		if err != nil {
			t.Fatalf("%s: stamped solve: %v", what, err)
		}
		xw, aw, err := want.SolveCtx(context.Background(), b, nil, nil)
		if err != nil {
			t.Fatalf("%s: sorted solve: %v", what, err)
		}
		bitEqualFloats(t, what+" solution", xg, xw)
		if len(ag) != len(aw) || ag[0].Iterations != aw[0].Iterations ||
			math.Float64bits(ag[0].Residual) != math.Float64bits(aw[0].Residual) {
			t.Fatalf("%s: attempt traces diverge: %+v vs %+v", what, ag, aw)
		}
		return
	}
	bitEqualInts(t, what+" RowPtr", got.mat.RowPtr, want.mat.RowPtr)
	bitEqualInts(t, what+" Col", got.mat.Col, want.mat.Col)
	for r := 0; r < got.mat.N; r++ {
		u := got.nodeOf[r]
		sum := 0.0
		for k := rowPtr[u]; k < rowPtr[u+1]; k++ {
			sum += w[k]
		}
		if got.diag[r] != sum {
			t.Fatalf("%s: diagonal of node %d is %x, want the column-order sum %x", what, u, got.diag[r], sum)
		}
		for k := got.mat.RowPtr[r]; k < got.mat.RowPtr[r+1]; k++ {
			g, s := got.mat.Val[k], want.mat.Val[k]
			if got.mat.Col[k] == r {
				if g != sum {
					t.Fatalf("%s: stored diagonal of node %d is %x, want %x", what, u, g, sum)
				}
				if !ApproxEqualTol(g, s, 1e-12) {
					t.Fatalf("%s: diagonal of node %d is %g, sorted assembly %g", what, u, g, s)
				}
				continue
			}
			if math.Float64bits(g) != math.Float64bits(s) {
				t.Fatalf("%s: off-diagonal (%d,%d) %x vs %x", what, r, got.mat.Col[k], g, s)
			}
		}
	}
	if got.Preconditioner() != want.Preconditioner() {
		t.Fatalf("%s: preconditioner %q vs %q", what, got.Preconditioner(), want.Preconditioner())
	}
}

// TestStampLaplacianMatchesSortedAssembly runs both weight kinds over
// graphs of several sizes and grounds, each stamped fresh and into a
// Laplacian the stamp last filled with another graph.
func TestStampLaplacianMatchesSortedAssembly(t *testing.T) {
	var reused *Laplacian
	for seed := int64(1); seed <= 12; seed++ {
		for _, exact := range []bool{true, false} {
			weight := arbitraryWeight
			if exact {
				weight = dyadicWeight
			}
			n := 2 + int(seed*7)%60
			ground := int(seed*13) % n
			rowPtr, col, w, _ := sortedAdjacency(n, randomSimpleEdges(n, int(seed)*n/4, seed, weight))
			fresh, err := StampLaplacian(nil, rowPtr, col, w, ground)
			if err != nil {
				t.Fatal(err)
			}
			checkStamp(t, "fresh", fresh, rowPtr, col, w, ground, exact)
			if reused, err = StampLaplacian(reused, rowPtr, col, w, ground); err != nil {
				t.Fatal(err)
			}
			sameLaplacian(t, "reused", reused, fresh)
		}
	}
}

// TestStampLaplacianIsolatedNode pins the one row whose diagonal sums to
// zero: a node without neighbours stores no diagonal, as in the sorted
// assembly, so both fall back to Jacobi with a zero diagonal entry.
func TestStampLaplacianIsolatedNode(t *testing.T) {
	// The path 0-1-2 and the isolated node 3.
	rowPtr, col, w := []int{0, 1, 3, 4, 4}, []int{1, 0, 2, 1}, []float64{1, 1, 0.5, 0.5}
	l, err := StampLaplacian(nil, rowPtr, col, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReassembleLaplacian(nil, rowPtr, col, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameLaplacian(t, "isolated node", l, want)
	if l.Preconditioner() != "jacobi" {
		t.Fatalf("preconditioner %q, want jacobi", l.Preconditioner())
	}
}

// TestStampLaplacianAcrossConstructors assembles into a Laplacian the
// other constructor filled first, with a larger graph: both must give
// what they give into fresh storage.
func TestStampLaplacianAcrossConstructors(t *testing.T) {
	brp, bcol, bw, _ := sortedAdjacency(80, randomSimpleEdges(80, 120, 9, arbitraryWeight))
	rowPtr, col, w, _ := sortedAdjacency(30, randomSimpleEdges(30, 40, 10, dyadicWeight))
	for _, tc := range []struct {
		name        string
		first, then func(*Laplacian, []int, []int, []float64, int) (*Laplacian, error)
	}{
		{"stamp after sort", ReassembleLaplacian, StampLaplacian},
		{"sort after stamp", StampLaplacian, ReassembleLaplacian},
	} {
		dst, err := tc.first(nil, brp, bcol, bw, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.then(dst, rowPtr, col, w, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.then(nil, rowPtr, col, w, 7)
		if err != nil {
			t.Fatal(err)
		}
		sameLaplacian(t, tc.name, got, want)
	}
}

// TestStampLaplacianRejectsBadRows corrupts row 2 of a valid path in each
// way the stamp rejects and requires an error naming row 2; a reused
// Laplacian must then assemble normally again.
func TestStampLaplacianRejectsBadRows(t *testing.T) {
	// The path 0-1-2-3; row 2 is col[3:5], w[3:5].
	rowPtr := []int{0, 1, 3, 5, 6}
	path := func() ([]int, []float64) {
		return []int{1, 0, 2, 1, 3, 2}, []float64{1, 1, 1, 1, 1, 1}
	}
	col, w := path()
	l, err := StampLaplacian(nil, rowPtr, col, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ground int
		c2     [2]int
		w2     [2]float64
	}{
		{"unsorted row", 0, [2]int{3, 1}, [2]float64{1, 1}},
		{"repeated column", 0, [2]int{1, 1}, [2]float64{1, 1}},
		{"self-loop", 0, [2]int{1, 2}, [2]float64{1, 1}},
		{"self-loop in the ground row", 2, [2]int{1, 2}, [2]float64{1, 1}},
		{"column out of range", 0, [2]int{1, 4}, [2]float64{1, 1}},
		{"negative column", 0, [2]int{-1, 1}, [2]float64{1, 1}},
		{"NaN weight", 0, [2]int{1, 3}, [2]float64{1, math.NaN()}},
		{"+Inf weight", 0, [2]int{1, 3}, [2]float64{math.Inf(1), 1}},
		{"zero weight", 0, [2]int{1, 3}, [2]float64{1, 0}},
		{"negative weight", 0, [2]int{1, 3}, [2]float64{-1, 1}},
	} {
		col, w := path()
		copy(col[3:5], tc.c2[:])
		copy(w[3:5], tc.w2[:])
		_, err := StampLaplacian(l, rowPtr, col, w, tc.ground)
		if err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "row 2:") {
			t.Fatalf("%s: error %q does not name row 2", tc.name, err)
		}
	}
	if _, err := StampLaplacian(l, []int{0, 0}, nil, nil, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	col, w = path()
	if _, err := StampLaplacian(l, rowPtr, col, w, 4); err == nil {
		t.Fatal("ground out of range accepted")
	}
	// Recovery: a successful assembly after failures works normally.
	if l, err = StampLaplacian(l, rowPtr, col, w, 0); err != nil {
		t.Fatal(err)
	}
	checkStamp(t, "recovered", l, rowPtr, col, w, 0, true)
	if r, err := l.effectiveResistance(0, 3); err != nil || !almostEq(r, 3, 1e-9) {
		t.Fatalf("resistance after recovery = %g, %v; want 3", r, err)
	}
}

// FuzzStampLaplacian pins the sort-free stamp to ReassembleLaplacian on
// random connected simple graphs: bit for bit, solve included, with
// dyadic weights; structure, off-diagonals and column-order diagonal sums
// with arbitrary ones. The stamp assembles into a Laplacian the sorted
// constructor filled with another graph first.
func FuzzStampLaplacian(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(2), uint8(30), uint8(40), uint8(7), true)
	f.Add(int64(3), uint8(200), uint8(255), uint8(199), false)
	f.Add(int64(4), uint8(9), uint8(90), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, nb, extra, gb uint8, exact bool) {
		n := 2 + int(nb)
		ground := int(gb) % n
		weight := arbitraryWeight
		if exact {
			weight = dyadicWeight
		}
		rowPtr, col, w, _ := sortedAdjacency(n, randomSimpleEdges(n, int(extra)%(3*n), seed, weight))
		orp, ocol, ow, _ := sortedAdjacency(n+1, randomSimpleEdges(n+1, n, seed+1, arbitraryWeight))
		dst, err := ReassembleLaplacian(nil, orp, ocol, ow, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := StampLaplacian(dst, rowPtr, col, w, ground)
		if err != nil {
			t.Fatal(err)
		}
		checkStamp(t, "stamp", got, rowPtr, col, w, ground, exact)
	})
}
