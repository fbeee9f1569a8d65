package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self loop must error")
	}
	if err := g.AddEdge(0, 1, -1); err == nil {
		t.Fatal("negative weight must error")
	}
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	degree := func(u int) int {
		d := 0
		g.Neighbors(u, func(int, float64) { d++ })
		return d
	}
	if g.M() != 1 || degree(0) != 1 || degree(1) != 1 {
		t.Fatalf("M=%d deg0=%d deg1=%d", g.M(), degree(0), degree(1))
	}
}

func TestNeighborsAndEdges(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 0, 2, 2)
	mustAdd(t, g, 2, 3, 3)
	var got []int
	g.Neighbors(0, func(v int, w float64) { got = append(got, v) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("neighbors of 0 = %v", got)
	}
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	want := []Edge{{0, 1, 1}, {0, 2, 2}, {2, 3, 3}}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestDijkstraSimple(t *testing.T) {
	//  0 --1-- 1 --1-- 2
	//   \------5------/
	g := New(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 5)
	paths, err := g.ShortestPaths(0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := g.Dijkstra(0)
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
	g := New(4)
	mustAdd(t, g, 0, 1, 1)
	if _, err := g.ShortestPaths(0, []int{1, 3}); err == nil {
		t.Fatal("unreachable node must error")
	}
	dist, _, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[3], 1) {
		t.Fatalf("unreachable dist = %g, want +Inf", dist[3])
	}
}

func TestShortestPathsOneToMany(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		mustAdd(t, g, i, i+1, float64(i+1))
	}
	paths, err := g.ShortestPaths(0, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || len(paths[0]) != 3 || len(paths[1]) != 5 {
		t.Fatalf("paths = %v", paths)
	}
}

// bellmanFord computes single-source shortest path distances by edge
// relaxation: the slower oracle that cross-validates Dijkstra (both are
// cited in paper §II-C). Negative edges are rejected at AddEdge, so no
// negative cycles can exist.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	edges := g.Edges()
	for i := 0; i < g.n; i++ {
		changed := false
		for _, e := range edges {
			if dist[e.U]+e.Weight < dist[e.V] {
				dist[e.V] = dist[e.U] + e.Weight
				changed = true
			}
			if dist[e.V]+e.Weight < dist[e.U] {
				dist[e.U] = dist[e.V] + e.Weight
				changed = true
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
		g := New(n)
		mEdges := n + rng.Intn(3*n)
		for k := 0; k < mEdges; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = g.AddEdge(u, v, rng.Float64()*10)
			}
		}
		src := rng.Intn(n)
		d1, _, err := g.Dijkstra(src)
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
	g := New(5)
	for i := 0; i < 4; i++ {
		mustAdd(t, g, i, i+1, 1)
	}
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
	g := New(6)
	for i := 0; i < 5; i++ {
		mustAdd(t, g, i, i+1, 1)
	}
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
	g := New(2)
	mustAdd(t, g, 0, 1, 5)
	mustAdd(t, g, 0, 1, 2)
	paths, err := g.ShortestPaths(0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := g.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0]) != 2 || dist[1] != 2 {
		t.Fatalf("multi-edge path %v cost %g, want [0 1] at cost 2", paths[0], dist[1])
	}
}
