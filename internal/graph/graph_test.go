package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// mustGraph builds the graph on n nodes from the listed edges.
func mustGraph(t *testing.T, n int, edges ...Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// path builds the path graph 0-1-...-(n-1) with weight w(i) on edge
// (i, i+1).
func path(t *testing.T, n int, w func(i int) float64) *Graph {
	t.Helper()
	var edges []Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1, w(i)})
	}
	return mustGraph(t, n, edges...)
}

func TestFromEdgesValidation(t *testing.T) {
	for _, e := range []Edge{{0, 3, 1}, {1, 1, 1}, {0, 1, -1}} {
		if _, err := FromEdges(3, []Edge{e}); err == nil {
			t.Fatalf("edge %v must error", e)
		}
	}
	g := mustGraph(t, 3, Edge{0, 1, 2})
	deg := func(u int) int { to, _ := g.Adj(u); return len(to) }
	if g.N() != 3 || g.M() != 1 || deg(0) != 1 || deg(1) != 1 || deg(2) != 0 {
		t.Fatalf("N=%d M=%d deg0=%d deg1=%d deg2=%d", g.N(), g.M(), deg(0), deg(1), deg(2))
	}
}

func TestAdjAndEdges(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 1}, Edge{0, 2, 2}, Edge{2, 3, 3})
	to, w := g.Adj(0)
	if !slices.Equal(to, []int{1, 2}) || !slices.Equal(w, []float64{1, 2}) {
		t.Fatalf("Adj(0) = %v, %v", to, w)
	}
	if cap(to) != len(to) || cap(w) != len(w) {
		t.Fatalf("Adj(0) capacities %d, %d, want the row length %d", cap(to), cap(w), len(to))
	}
	// CSR exposes every row at once, each edge in both endpoints' rows.
	rowPtr, csrTo, csrW := g.CSR()
	if !slices.Equal(rowPtr, []int{0, 2, 3, 5, 6}) || !slices.Equal(csrTo, []int{1, 2, 0, 0, 3, 2}) ||
		!slices.Equal(csrW, []float64{1, 2, 1, 2, 3, 3}) {
		t.Fatalf("CSR = %v, %v, %v", rowPtr, csrTo, csrW)
	}
	for u := 0; u < g.N(); u++ {
		to, w := g.Adj(u)
		lo, hi := rowPtr[u], rowPtr[u+1]
		if !slices.Equal(csrTo[lo:hi], to) || !slices.Equal(csrW[lo:hi], w) {
			t.Fatalf("CSR row %d = %v, %v; Adj = %v, %v", u, csrTo[lo:hi], csrW[lo:hi], to, w)
		}
	}
	// Rows keep list order: a row listed out of order stays out of order.
	g = mustGraph(t, 3, Edge{0, 2, 1}, Edge{1, 0, 2})
	if to, w := g.Adj(0); !slices.Equal(to, []int{2, 1}) || !slices.Equal(w, []float64{1, 2}) {
		t.Fatalf("Adj(0) = %v, %v, want list order [2 1], [1 2]", to, w)
	}
}

func TestDijkstraSimple(t *testing.T) {
	//  0 --1-- 1 --1-- 2
	//   \------5------/
	g := mustGraph(t, 3, Edge{0, 1, 1}, Edge{1, 2, 1}, Edge{0, 2, 5})
	paths, err := g.ShortestPaths(0, []int{2}, identity)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := g.Dijkstra(0, identity)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 2 {
		t.Fatalf("cost = %g, want 2", dist[2])
	}
	if path := paths[0]; len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Fatalf("path = %v, want [0 1 2]", paths[0])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := mustGraph(t, 4, Edge{0, 1, 1})
	if _, err := g.ShortestPaths(0, []int{1, 3}, identity); err == nil {
		t.Fatal("unreachable node must error")
	}
	dist, _, err := g.Dijkstra(0, identity)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[3], 1) {
		t.Fatalf("unreachable dist = %g, want +Inf", dist[3])
	}
}

func TestShortestPathsOneToMany(t *testing.T) {
	g := path(t, 5, func(i int) float64 { return float64(i + 1) })
	paths, err := g.ShortestPaths(0, []int{2, 4}, identity)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || len(paths[0]) != 3 || len(paths[1]) != 5 {
		t.Fatalf("paths = %v", paths)
	}
}

// bellmanFord computes single-source shortest path distances by edge
// relaxation: the slower oracle that cross-validates Dijkstra (both are
// cited in paper §II-C). Negative edges are rejected by FromEdges, so no
// negative cycles can exist.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for i := 0; i < g.N(); i++ {
		changed := false
		// Every edge sits in both endpoints' rows, so walking the rows
		// relaxes it in both directions.
		for u := 0; u < g.N(); u++ {
			to, w := g.Adj(u)
			for k, v := range to {
				if dist[u]+w[k] < dist[v] {
					dist[v] = dist[u] + w[k]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestQuickDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 2 + rng.Intn(20)
		var edges []Edge
		mEdges := n + rng.Intn(3*n)
		for k := 0; k < mEdges; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, Edge{u, v, rng.Float64() * 10})
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		src := rng.Intn(n)
		d1, _, err := g.Dijkstra(src, identity)
		if err != nil {
			return false
		}
		d2 := bellmanFord(g, src)
		for i := range d1 {
			if math.IsInf(d1[i], 1) != math.IsInf(d2[i], 1) {
				return false
			}
			if !math.IsInf(d1[i], 1) && math.Abs(d1[i]-d2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBoundary(t *testing.T) {
	// Path 0-1-2-3-4, inside = {1,2}: boundary = {0,3}.
	g := path(t, 5, func(int) float64 { return 1 })
	inside := []bool{false, true, true, false, false}
	b := g.Boundary(inside)
	if len(b) != 2 || b[0] != 0 || b[1] != 3 {
		t.Fatalf("boundary = %v, want [0 3]", b)
	}
}

// TestBoundaryIntoReusesStorage takes boundaries of a shrinking set into
// one buffer and one scratch: each must equal Boundary, land in the
// caller's array, and leave the scratch all false.
func TestBoundaryIntoReusesStorage(t *testing.T) {
	g := path(t, 6, func(int) float64 { return 1 })
	seen := make([]bool, g.N())
	dst := make([]int, 0, 4)
	for _, inside := range [][]bool{
		{false, true, false, false, true, false},
		{false, false, true, true, false, false},
		{true, true, true, true, true, true},
	} {
		got := g.BoundaryInto(dst, seen, inside)
		if want := g.Boundary(inside); !slices.Equal(got, want) {
			t.Fatalf("BoundaryInto(%v) = %v, want %v", inside, got, want)
		}
		if len(got) > 0 && &got[0] != &dst[:1][0] {
			t.Errorf("BoundaryInto(%v) did not reuse the caller's array", inside)
		}
		if slices.Contains(seen, true) {
			t.Fatalf("BoundaryInto(%v) left marks in the scratch: %v", inside, seen)
		}
	}
}

func TestMultiEdgePathUsesCheapest(t *testing.T) {
	g := mustGraph(t, 2, Edge{0, 1, 5}, Edge{0, 1, 2})
	paths, err := g.ShortestPaths(0, []int{1}, identity)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := g.Dijkstra(0, identity)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0]) != 2 || dist[1] != 2 {
		t.Fatalf("multi-edge path %v cost %g, want [0 1] at cost 2", paths[0], dist[1])
	}
}
