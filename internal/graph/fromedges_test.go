package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// addEdges builds the graph FromEdges must reproduce: the edges inserted
// one by one with AddEdge, stopping at the first error.
func addEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// checkFromEdges requires FromEdges to build the graph AddEdge builds,
// nil lists of isolated nodes included.
func checkFromEdges(t *testing.T, n int, edges []Edge) {
	t.Helper()
	got, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := addEdges(n, edges)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromEdges(%d, %v) = %+v, AddEdge built %+v", n, edges, got, want)
	}
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	checkFromEdges(t, 0, nil)
	checkFromEdges(t, 4, []Edge{})
	checkFromEdges(t, 5, []Edge{{1, 3, 2}})                                  // isolated nodes
	checkFromEdges(t, 3, []Edge{{0, 1, 1}, {1, 0, 2}, {0, 1, 1}, {1, 2, 0}}) // parallel edges
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		var edges []Edge
		for k := rng.Intn(3 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, Edge{u, v, float64(rng.Intn(3))})
			}
		}
		checkFromEdges(t, n, edges)
	}
}

func TestFromEdgesErrorsMatchAddEdge(t *testing.T) {
	for name, edges := range map[string][]Edge{
		"out of range": {{0, 1, 1}, {0, 3, 1}},
		"negative id":  {{-1, 1, 1}},
		"self-loop":    {{0, 1, 1}, {2, 2, 1}},
		"negative w":   {{0, 1, -1}, {0, 5, 1}},
	} {
		g, err := FromEdges(3, edges)
		_, want := addEdges(3, edges)
		if err == nil || g != nil || err.Error() != want.Error() {
			t.Fatalf("%s: FromEdges = %v, %v; AddEdge error %v", name, g, err, want)
		}
	}
}

// An AddEdge after FromEdges appends to one node's list; the capped
// arena slices make it reallocate rather than write into the next list.
func TestAddEdgeAfterFromEdgesKeepsNeighbours(t *testing.T) {
	edges := []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 4}}
	g, err := FromEdges(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][3]int{{0, 2, 5}, {1, 3, 6}, {4, 0, 7}, {3, 4, 8}} {
		mustAdd(t, g, e[0], e[1], float64(e[2]))
		edges = append(edges, Edge{e[0], e[1], float64(e[2])})
	}
	want, _ := addEdges(5, edges)
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("after AddEdge: %+v, want %+v", g, want)
	}
}
