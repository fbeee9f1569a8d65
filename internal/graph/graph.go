// Package graph provides the weighted undirected graph substrate used by
// SPROUT's routing stages: adjacency storage, Dijkstra shortest paths
// (paper §II-C; the Bellman-Ford it also cites is Dijkstra's test
// oracle), and subgraph boundary sets (the set C of paper §II-D).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Edge is an undirected weighted edge between node indices U and V.
// Weight is interpreted as a cost for shortest paths; SPROUT uses the
// reciprocal of the inter-tile conductance so that low-resistance corridors
// are preferred.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a weighted undirected graph over nodes 0..N-1 with adjacency
// lists. The zero value is unusable; construct with New.
type Graph struct {
	n   int
	adj [][]halfEdge
	m   int
}

// halfEdge is the adjacency-list entry: the far endpoint and the weight.
type halfEdge struct {
	to int
	w  float64
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the undirected edge count.
func (g *Graph) M() int { return g.m }

// FromEdges builds the graph on n nodes that inserting edges one by one
// with AddEdge, in list order, would build, and fails with AddEdge's error
// on the first edge AddEdge would reject. It allocates per graph, not per
// node: every adjacency list is carved from one exact-size array and capped
// at its node's degree, so a later AddEdge reallocates that list instead
// of overwriting its neighbour's. Nodes without edges keep nil lists, as
// under AddEdge.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	deg := make([]int, n)
	for _, e := range edges {
		if err := g.checkEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
		deg[e.U]++
		deg[e.V]++
	}
	arena := make([]halfEdge, 2*len(edges))
	o := 0
	for u, d := range deg {
		if d > 0 {
			g.adj[u] = arena[o : o : o+d]
			o += d
		}
	}
	for _, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], halfEdge{e.V, e.Weight})
		g.adj[e.V] = append(g.adj[e.V], halfEdge{e.U, e.Weight})
	}
	g.m = len(edges)
	return g, nil
}

// AddEdge inserts an undirected edge. Multi-edges are allowed (they act as
// parallel conductances for electrical use and as alternatives for paths).
func (g *Graph) AddEdge(u, v int, w float64) error {
	if err := g.checkEdge(u, v, w); err != nil {
		return err
	}
	g.adj[u] = append(g.adj[u], halfEdge{v, w})
	g.adj[v] = append(g.adj[v], halfEdge{u, w})
	g.m++
	return nil
}

// checkEdge rejects out-of-range endpoints, self-loops and negative
// weights.
func (g *Graph) checkEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if w < 0 {
		return fmt.Errorf("graph: negative weight %g on (%d,%d)", w, u, v)
	}
	return nil
}

// Neighbors calls fn for every incident edge of u with the far endpoint and
// the edge weight. Iteration order is insertion order (deterministic).
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for _, he := range g.adj[u] {
		fn(he.to, he.w)
	}
}

// Edges returns all undirected edges with U < V, sorted, for deterministic
// downstream assembly.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, he := range g.adj[u] {
			if u < he.to {
				out = append(out, Edge{u, he.to, he.w})
			}
		}
	}
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.Weight, b.Weight))
	})
	return out
}

// Boundary returns the nodes of g adjacent to, but not members of, the set
// `inside` — the boundary set C of paper §II-D. Result is sorted.
func (g *Graph) Boundary(inside []bool) []int {
	return g.BoundaryInto(nil, make([]bool, g.n), inside)
}

// BoundaryInto is Boundary writing into caller storage, for loops that
// take a boundary at every step: the sorted boundary replaces the contents
// of dst, whose backing array is reused when large enough, and seen is the
// visit scratch. seen must hold g.N() false entries; it holds only false
// entries again on return.
func (g *Graph) BoundaryInto(dst []int, seen []bool, inside []bool) []int {
	if len(inside) != g.n || len(seen) != g.n {
		panic(fmt.Sprintf("graph: Boundary mask len %d, scratch len %d, want %d", len(inside), len(seen), g.n))
	}
	out := dst[:0]
	for u := 0; u < g.n; u++ {
		if !inside[u] {
			continue
		}
		for _, he := range g.adj[u] {
			if !inside[he.to] && !seen[he.to] {
				seen[he.to] = true
				out = append(out, he.to)
			}
		}
	}
	for _, v := range out {
		seen[v] = false
	}
	sort.Ints(out)
	return out
}
