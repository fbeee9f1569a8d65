package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// listGraph is FromEdges's oracle: an insertion-order adjacency-list
// graph, one list per node, each edge appended to both endpoints' lists
// as it is added.
type listGraph struct {
	n   int
	adj [][]halfEdge
	m   int
}

// halfEdge is a list entry: the far endpoint and the weight.
type halfEdge struct {
	to int
	w  float64
}

// addEdge appends an undirected edge to both endpoints' lists, with the
// validation and error text of the original builder.
func (g *listGraph) addEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w < 0 {
		return fmt.Errorf("graph: negative weight %g on (%d,%d)", w, u, v)
	}
	g.adj[u] = append(g.adj[u], halfEdge{v, w})
	g.adj[v] = append(g.adj[v], halfEdge{u, w})
	g.m++
	return nil
}

// addEdges builds the lists FromEdges must reproduce: the edges added one
// by one, stopping at the first error.
func addEdges(n int, edges []Edge) (*listGraph, error) {
	g := &listGraph{n: n, adj: make([][]halfEdge, n)}
	for _, e := range edges {
		if err := g.addEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// rows reads g's CSR rows back as per-node lists, nil for an empty row.
func rows(g *Graph) [][]halfEdge {
	out := make([][]halfEdge, g.N())
	for u := range out {
		to, w := g.Adj(u)
		for k, v := range to {
			out[u] = append(out[u], halfEdge{v, w[k]})
		}
	}
	return out
}

// checkFromEdges requires FromEdges's rows to equal the insertion-order
// lists, empty rows of isolated nodes included.
func checkFromEdges(t *testing.T, n int, edges []Edge) {
	t.Helper()
	got, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := addEdges(n, edges)
	if got.N() != want.n || got.M() != want.m || !reflect.DeepEqual(rows(got), want.adj) {
		t.Fatalf("FromEdges(%d, %v): n=%d m=%d rows %v; lists n=%d m=%d %v",
			n, edges, got.N(), got.M(), rows(got), want.n, want.m, want.adj)
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
			t.Fatalf("%s: FromEdges = %v, %v; addEdge error %v", name, g, err, want)
		}
	}
}
