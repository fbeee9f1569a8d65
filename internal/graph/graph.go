// Package graph provides the weighted undirected graph substrate used by
// SPROUT's routing stages: a read-only CSR adjacency, Dijkstra shortest
// paths (paper §II-C; the Bellman-Ford it also cites is Dijkstra's test
// oracle), and subgraph boundary sets (the set C of paper §II-D).
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected weighted edge between node indices U and V. For
// tile graphs Weight is the inter-tile conductance; shortest paths take
// their edge cost from it through the caller's cost rule.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is an immutable weighted undirected graph over nodes 0..N-1 in
// compressed sparse row form: node u's neighbours are
// to[rowPtr[u]:rowPtr[u+1]], with the edge weights at the same positions
// of w. Every edge sits in both of its endpoints' rows. Construct with
// FromEdges from an edge list, or with FromRows from rows already laid
// out in this form.
type Graph struct {
	rowPtr []int
	to     []int
	w      []float64
}

// N returns the node count.
func (g *Graph) N() int { return len(g.rowPtr) - 1 }

// M returns the undirected edge count.
func (g *Graph) M() int { return len(g.to) / 2 }

// FromEdges builds the graph on n nodes whose rows list each node's edges
// in list order: edge k sits in the rows of both endpoints after every
// earlier edge there. Parallel edges are kept (they act as parallel
// conductances for electrical use and as alternatives for paths). It fails
// on the first edge with an out-of-range endpoint, a self-loop or a
// negative weight.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	rowPtr := make([]int, n+1)
	for _, e := range edges {
		if err := checkEdge(n, e); err != nil {
			return nil, err
		}
		rowPtr[e.U+1]++
		rowPtr[e.V+1]++
	}
	for u := 0; u < n; u++ {
		rowPtr[u+1] += rowPtr[u]
	}
	g := &Graph{rowPtr: rowPtr, to: make([]int, rowPtr[n]), w: make([]float64, rowPtr[n])}
	// rowPtr[u] is row u's fill cursor and ends at row u's end, the start
	// of row u+1; shifting by one restores the offsets.
	for _, e := range edges {
		g.to[rowPtr[e.U]], g.w[rowPtr[e.U]] = e.V, e.Weight
		rowPtr[e.U]++
		g.to[rowPtr[e.V]], g.w[rowPtr[e.V]] = e.U, e.Weight
		rowPtr[e.V]++
	}
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0
	return g, nil
}

// FromRows builds the graph whose CSR rows are given: node u's
// neighbours are to[rowPtr[u]:rowPtr[u+1]], with the edge weights at the
// same positions of w, so the graph has len(rowPtr)-1 nodes. Every edge
// must sit in both of its endpoints' rows with the same weight; the rows
// keep the order given, and the graph takes the slices as its storage.
// It fails on the first entry with an out-of-range neighbour, a self-loop
// or a negative weight, the checks of FromEdges.
func FromRows(rowPtr, to []int, w []float64) (*Graph, error) {
	n := len(rowPtr) - 1
	if n < 0 || rowPtr[0] != 0 || rowPtr[n] != len(to) || len(w) != len(to) {
		panic(fmt.Sprintf("graph: malformed rows: %d row offsets for %d neighbours and %d weights", len(rowPtr), len(to), len(w)))
	}
	for u := 0; u < n; u++ {
		if rowPtr[u] > rowPtr[u+1] {
			panic(fmt.Sprintf("graph: row %d ends at %d before its start %d", u, rowPtr[u+1], rowPtr[u]))
		}
		for k := rowPtr[u]; k < rowPtr[u+1]; k++ {
			if err := checkEdge(n, Edge{U: u, V: to[k], Weight: w[k]}); err != nil {
				return nil, err
			}
		}
	}
	return &Graph{rowPtr: rowPtr, to: to, w: w}, nil
}

// checkEdge rejects out-of-range endpoints, self-loops and negative
// weights.
func checkEdge(n int, e Edge) error {
	if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
	}
	if e.U == e.V {
		return fmt.Errorf("graph: self-loop at %d", e.U)
	}
	if e.Weight < 0 {
		return fmt.Errorf("graph: negative weight %g on (%d,%d)", e.Weight, e.U, e.V)
	}
	return nil
}

// Adj returns node u's row: its neighbours and the weights of the edges to
// them, in FromEdges list order or as FromRows was given them. The slices
// share the graph's storage and are capped at the row's end; callers must
// not write to them.
func (g *Graph) Adj(u int) (to []int, w []float64) {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	return g.to[lo:hi:hi], g.w[lo:hi:hi]
}

// CSR exposes the whole adjacency in compressed sparse row form: node u's
// neighbours are to[rowPtr[u]:rowPtr[u+1]], with the edge weights at the
// same positions of w, each edge in both of its endpoints' rows. The
// slices are the graph's own storage; callers must not write to them.
func (g *Graph) CSR() (rowPtr, to []int, w []float64) {
	return g.rowPtr, g.to, g.w
}

// Boundary returns the nodes of g adjacent to, but not members of, the set
// `inside` — the boundary set C of paper §II-D. Result is sorted.
func (g *Graph) Boundary(inside []bool) []int {
	return g.BoundaryInto(nil, make([]bool, g.N()), inside)
}

// BoundaryInto is Boundary writing into caller storage, for loops that
// take a boundary at every step: the sorted boundary replaces the contents
// of dst, whose backing array is reused when large enough, and seen is the
// visit scratch. seen must hold g.N() false entries; it holds only false
// entries again on return.
func (g *Graph) BoundaryInto(dst []int, seen []bool, inside []bool) []int {
	if len(inside) != g.N() || len(seen) != g.N() {
		panic(fmt.Sprintf("graph: Boundary mask len %d, scratch len %d, want %d", len(inside), len(seen), g.N()))
	}
	out := dst[:0]
	for u, in := range inside {
		if !in {
			continue
		}
		to, _ := g.Adj(u)
		for _, v := range to {
			if !inside[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	for _, v := range out {
		seen[v] = false
	}
	sort.Ints(out)
	return out
}
