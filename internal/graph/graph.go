// Package graph provides the weighted undirected graph substrate used by
// SPROUT's routing stages: adjacency storage, Dijkstra shortest paths
// (paper §II-C; the Bellman-Ford it also cites is Dijkstra's test
// oracle), connected components, induced subgraphs, and subgraph
// boundary sets (the set C of paper §II-D).
package graph

import (
	"fmt"
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

// AddEdge inserts an undirected edge. Multi-edges are allowed (they act as
// parallel conductances for electrical use and as alternatives for paths).
func (g *Graph) AddEdge(u, v int, w float64) error {
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

// Degree returns the number of incident edges at u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

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
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].Weight < out[j].Weight
	})
	return out
}

// InducedSubgraph returns the subgraph on the given node set together with
// the mapping from new node index to original node index. Nodes absent
// from the set are dropped along with their edges (paper Alg. 4 line 13,
// Γ_n[V_n^s]).
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	keep := make([]int, g.n)
	for i := range keep {
		keep[i] = -1
	}
	orig := make([]int, 0, len(nodes))
	for _, u := range nodes {
		if u >= 0 && u < g.n && keep[u] == -1 {
			keep[u] = len(orig)
			orig = append(orig, u)
		}
	}
	sub := New(len(orig))
	for newU, u := range orig {
		for _, he := range g.adj[u] {
			if he.to > u { // each undirected edge once
				if newV := keep[he.to]; newV != -1 {
					_ = sub.AddEdge(newU, newV, he.w)
				}
			}
		}
	}
	return sub, orig
}

// Boundary returns the nodes of g adjacent to, but not members of, the set
// `inside` — the boundary set C of paper §II-D. Result is sorted.
func (g *Graph) Boundary(inside []bool) []int {
	if len(inside) != g.n {
		panic(fmt.Sprintf("graph: Boundary mask len %d, want %d", len(inside), g.n))
	}
	seen := make([]bool, g.n)
	var out []int
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
	sort.Ints(out)
	return out
}

// Components labels each node with a component id (0-based, in order of
// first occurrence) and returns the labels plus the component count.
func (g *Graph) Components() ([]int, int) {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	next := 0
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, he := range g.adj[u] {
				if label[he.to] == -1 {
					label[he.to] = next
					queue = append(queue, he.to)
				}
			}
		}
		next++
	}
	return label, next
}

// Connected reports whether all of the listed nodes lie in one component.
func (g *Graph) Connected(nodes ...int) bool {
	if len(nodes) <= 1 {
		return true
	}
	label, _ := g.Components()
	first := label[nodes[0]]
	for _, u := range nodes[1:] {
		if label[u] != first {
			return false
		}
	}
	return true
}
