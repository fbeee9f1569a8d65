package sparse

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sprout/internal/graph"
)

// randomConnectedEdges builds a connected weighted graph on n nodes: a
// random spanning chain plus extra chords. Deterministic per seed.
func randomConnectedEdges(n int, extra int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, graph.Edge{U: u, V: v, Weight: 0.5 + rng.Float64()})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, Weight: 0.5 + rng.Float64()})
	}
	return edges
}

func bitEqualFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %x vs %x (bit mismatch)", what, i, got[i], want[i])
		}
	}
}

func bitEqualInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %d vs %d", what, i, got[i], want[i])
		}
	}
}

// TestReassembleLaplacianBitIdentical is the contract the route solver
// session rests on: reassembling into a reused Laplacian — across edge
// sets of different sizes, in any order — produces exactly the matrix,
// preconditioner, and solve results a fresh assembly (nil dst) would.
func TestReassembleLaplacianBitIdentical(t *testing.T) {
	const n = 60
	setA := randomConnectedEdges(n, 40, 1)
	setB := randomConnectedEdges(n, 90, 2)
	setC := randomConnectedEdges(n, 5, 3)

	var reused *Laplacian
	for round, edges := range [][]graph.Edge{setA, setB, setC, setA, setC, setB} {
		fresh, err := newLaplacian(n, edges, 0)
		if err != nil {
			t.Fatalf("round %d: newLaplacian: %v", round, err)
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		rowPtr, col, w := g.CSR()
		reused, err = ReassembleLaplacian(reused, rowPtr, col, w, 0)
		if err != nil {
			t.Fatalf("round %d: ReassembleLaplacian: %v", round, err)
		}
		sameLaplacian(t, fmt.Sprintf("round %d", round), reused, fresh)

		b := make([]float64, n)
		b[n-1] = 1
		b[0] = -1
		xr, ar, err := reused.SolveCtx(context.Background(), b, nil, nil)
		if err != nil {
			t.Fatalf("round %d: reused solve: %v", round, err)
		}
		xf, af, err := fresh.SolveCtx(context.Background(), b, nil, nil)
		if err != nil {
			t.Fatalf("round %d: fresh solve: %v", round, err)
		}
		bitEqualFloats(t, "solution", xr, xf)
		if len(ar) != len(af) || ar[0].Iterations != af[0].Iterations || ar[0].Residual != af[0].Residual {
			t.Fatalf("round %d: attempt traces diverge: %+v vs %+v", round, ar, af)
		}
	}
}

// TestReassembleLaplacianRejectsBadInput pins the validation errors on the
// reuse path and that a reused Laplacian survives a failed reassembly once
// a later one succeeds.
func TestReassembleLaplacianRejectsBadInput(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}}
	l, err := newLaplacian(3, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReassembleLaplacian(l, []int{0, 0}, nil, nil, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	// The path 0-1-2 of edges, laid out by hand.
	rowPtr, col, w := []int{0, 1, 3, 4}, []int{1, 0, 2, 1}, []float64{1, 1, 1, 1}
	if _, err := ReassembleLaplacian(l, rowPtr, col, w, 5); err == nil {
		t.Fatal("ground out of range accepted")
	}
	if _, err := ReassembleLaplacian(l, []int{0, 2, 2, 2}, []int{0, 0}, []float64{1, 1}, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := ReassembleLaplacian(l, []int{0, 1, 2, 2}, []int{1, 0}, []float64{-2, -2}, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := ReassembleLaplacian(l, []int{0, 1, 2, 2}, []int{1, 0}, []float64{0, 0}, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := ReassembleLaplacian(l, []int{0, 1, 2, 2}, []int{1, 0}, []float64{math.NaN(), math.NaN()}, 0); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := ReassembleLaplacian(l, []int{0, 1, 2, 2}, []int{1, 0}, []float64{math.Inf(1), math.Inf(1)}, 0); err == nil {
		t.Fatal("+Inf weight accepted")
	}
	// Recovery: a successful reassembly after failures works normally.
	l, err = ReassembleLaplacian(l, rowPtr, col, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := l.effectiveResistance(0, 2); err != nil || !almostEq(r, 2, 1e-9) {
		t.Fatalf("resistance after recovery = %g, %v; want 2", r, err)
	}
}

// sortedAdjacency lays a graph's edges out as CSR rows sorted by (column,
// weight), and returns them with the graph's sorted edge list: U < V,
// ordered by (U, V, Weight), the order a tile graph's ascending rows list
// them in.
func sortedAdjacency(n int, edges []graph.Edge) (rowPtr, col []int, w []float64, sorted []graph.Edge) {
	byKey := func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.Weight, b.Weight))
	}
	rows := make([][]graph.Edge, n) // row u holds {u, neighbour, weight}
	for _, e := range edges {
		u, v := min(e.U, e.V), max(e.U, e.V)
		sorted = append(sorted, graph.Edge{U: u, V: v, Weight: e.Weight})
		rows[u] = append(rows[u], graph.Edge{U: u, V: v, Weight: e.Weight})
		rows[v] = append(rows[v], graph.Edge{U: v, V: u, Weight: e.Weight})
	}
	slices.SortFunc(sorted, byKey)
	rowPtr = make([]int, 1, n+1)
	for _, r := range rows {
		slices.SortFunc(r, byKey)
		for _, e := range r {
			col = append(col, e.V)
			w = append(w, e.Weight)
		}
		rowPtr = append(rowPtr, len(col))
	}
	return rowPtr, col, w, sorted
}

// sameLaplacian fails unless got and want hold bit-equal grounded
// matrices, diagonals and IC(0) factors.
func sameLaplacian(t *testing.T, what string, got, want *Laplacian) {
	t.Helper()
	bitEqualInts(t, what+" RowPtr", got.mat.RowPtr, want.mat.RowPtr)
	bitEqualInts(t, what+" Col", got.mat.Col, want.mat.Col)
	bitEqualFloats(t, what+" Val", got.mat.Val, want.mat.Val)
	bitEqualFloats(t, what+" diag", got.diag, want.diag)
	if (got.ic == nil) != (want.ic == nil) {
		t.Fatalf("%s: preconditioner %q vs %q", what, got.Preconditioner(), want.Preconditioner())
	}
	if got.ic != nil {
		bitEqualInts(t, what+" IC0 rowPtr", got.ic.rowPtr, want.ic.rowPtr)
		bitEqualInts(t, what+" IC0 col", got.ic.col, want.ic.col)
		bitEqualInts(t, what+" IC0 diag", got.ic.diag, want.ic.diag)
		bitEqualFloats(t, what+" IC0 val", got.ic.val, want.ic.val)
	}
}

// FuzzLaplacianFromAdjacency pins the CSR assembly to the edge-list oracle
// it replaced: on random connected graphs, parallel edges included, the
// sorted CSR adjacency assembled into a reused Laplacian must give the
// matrix, diagonal, IC(0) factor and solve of the oracle fed the sorted
// edge list, bit for bit. The graph.FromEdges layout of that list must
// match too.
func FuzzLaplacianFromAdjacency(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint8(40), uint8(7))
	f.Add(int64(3), uint8(200), uint8(255), uint8(199))
	f.Add(int64(4), uint8(9), uint8(90), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nb, extra, gb uint8) {
		n := 2 + int(nb)
		ground := int(gb) % n
		edges := randomConnectedEdges(n, int(extra)%(3*n), seed)
		rowPtr, col, w, sorted := sortedAdjacency(n, edges)
		want, err := reassembleLaplacianEdges(nil, n, sorted, ground)
		if err != nil {
			t.Fatal(err)
		}
		// Reuse a Laplacian that held another graph first.
		orp, ocol, ow, _ := sortedAdjacency(n+1, randomConnectedEdges(n+1, n, seed+1))
		got, err := ReassembleLaplacian(nil, orp, ocol, ow, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = ReassembleLaplacian(got, rowPtr, col, w, ground); err != nil {
			t.Fatal(err)
		}
		sameLaplacian(t, "CSR path", got, want)
		fresh, err := newLaplacian(n, sorted, ground)
		if err != nil {
			t.Fatal(err)
		}
		sameLaplacian(t, "FromEdges path", fresh, want)

		b := make([]float64, n)
		b[n-1] = 1
		b[0] = -1
		xg, ag, err := got.SolveCtx(context.Background(), b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		xw, aw, err := want.SolveCtx(context.Background(), b, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualFloats(t, "solution", xg, xw)
		if len(ag) != len(aw) {
			t.Fatalf("attempt traces diverge: %+v vs %+v", ag, aw)
		}
		for i := range ag {
			if ag[i].Rung != aw[i].Rung || ag[i].Iterations != aw[i].Iterations ||
				math.Float64bits(ag[i].Residual) != math.Float64bits(aw[i].Residual) {
				t.Fatalf("attempt %d diverges: %+v vs %+v", i, ag[i], aw[i])
			}
		}
	})
}

// TestSolveWorkspaceBitIdentical checks the workspace-backed solve path
// performs identical arithmetic: same solution bits, same ladder trace,
// across repeated solves reusing one Workspace.
func TestSolveWorkspaceBitIdentical(t *testing.T) {
	lap, b := gridLaplacian(t, 12, 12)
	var ws Workspace
	var prev []float64
	for round := 0; round < 3; round++ {
		// Vary the injection a little each round so the workspace sees
		// different values; warm-start from the previous full solution.
		rhs := make([]float64, len(b))
		copy(rhs, b)
		rhs[1+round] += 0.25
		want, wa, err := lap.SolveCtx(context.Background(), rhs, prev, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, ga, err := lap.SolveCtx(context.Background(), rhs, prev, &ws)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualFloats(t, "solution", got, want)
		if len(ga) != len(wa) || ga[0].Iterations != wa[0].Iterations || ga[0].Residual != wa[0].Residual {
			t.Fatalf("round %d: traces diverge: %+v vs %+v", round, ga, wa)
		}
		// The workspace-backed solution aliases ws.out — copy to keep.
		prev = append([]float64(nil), want...)
	}
}

// TestSolveWorkspaceSteadyStateAllocs pins the point of the workspace: a
// warmed-up repeated solve allocates only the attempts trace, not vectors.
func TestSolveWorkspaceSteadyStateAllocs(t *testing.T) {
	lap, b := gridLaplacian(t, 12, 12)
	var ws Workspace
	warm, _, err := lap.SolveCtx(context.Background(), b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := lap.SolveCtx(ctx, b, warm, &ws); err != nil {
			t.Fatal(err)
		}
	})
	// One slice header for the attempts append is expected; vector
	// allocations would push this into the dozens.
	if allocs > 4 {
		t.Fatalf("steady-state solve allocates %.0f objects/op, want <= 4", allocs)
	}
}

func TestBuilderResetAndBuildInto(t *testing.T) {
	bld := newBuilder(3)
	bld.add(0, 0, 2)
	bld.add(1, 1, 2)
	bld.add(2, 2, 2)
	bld.add(0, 1, -1)
	bld.add(1, 0, -1)
	first := bld.build()

	bld.reset(3)
	bld.add(0, 0, 2)
	bld.add(1, 1, 2)
	bld.add(2, 2, 2)
	bld.add(0, 1, -1)
	bld.add(1, 0, -1)
	second := bld.buildInto(first) // reuse first's arrays in place
	if second != first {
		t.Fatal("buildInto did not return its destination")
	}
	bitEqualInts(t, "RowPtr", second.RowPtr, []int{0, 2, 4, 5})
	bitEqualInts(t, "Col", second.Col, []int{0, 1, 0, 1, 2})
	bitEqualFloats(t, "Val", second.Val, []float64{2, -1, -1, 2, 2})
	d := second.DiagInto(nil)
	bitEqualFloats(t, "Diag", d, []float64{2, 2, 2})
	bitEqualFloats(t, "DiagInto reuse", second.DiagInto(d), []float64{2, 2, 2})
}
