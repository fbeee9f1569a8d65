package sparse

import (
	"fmt"

	"sprout/internal/graph"
)

// newBuilder returns an empty n x n coordinate builder.
func newBuilder(n int) *builder { return &builder{n: n} }

// build assembles a fresh CSR matrix from the builder's entries.
func (b *builder) build() *CSR { return b.buildInto(nil) }

// newLaplacian assembles the grounded Laplacian of an n-node edge list the
// way production callers do: graph.FromEdges lays the list out as a CSR
// adjacency, each edge in both endpoint rows in list order, and
// ReassembleLaplacian stamps it.
func newLaplacian(n int, edges []graph.Edge, ground int) (*Laplacian, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	rowPtr, to, w := g.CSR()
	return ReassembleLaplacian(nil, rowPtr, to, w, ground)
}

// reassembleLaplacianEdges is the edge-list assembly that
// ReassembleLaplacian replaced, kept as a test oracle with its body
// unchanged but for the builder it stamps into. It assembles the grounded Laplacian of an n-node edge list
// into dst, reusing dst's storage (nil dst allocates), and stamps the
// edges into the builder in list order. Fed the sorted edge list of a
// graph, it must give the matrix, diagonal, IC(0) factor and solves of the
// CSR path bit for bit (FuzzLaplacianFromAdjacency).
func reassembleLaplacianEdges(dst *Laplacian, n int, edges []graph.Edge, ground int) (*Laplacian, error) {
	if n <= 1 {
		return nil, fmt.Errorf("sparse: laplacian needs n >= 2, got %d", n)
	}
	if ground < 0 || ground >= n {
		return nil, fmt.Errorf("sparse: ground node %d out of range [0,%d)", ground, n)
	}
	l := dst
	if l == nil {
		l = &Laplacian{}
	}
	l.n = n
	l.ground = ground
	l.indexOf = grow(l.indexOf, n)
	l.nodeOf = grow(l.nodeOf, n-1)[:0]
	for i := 0; i < n; i++ {
		if i == ground {
			l.indexOf[i] = -1
			continue
		}
		l.indexOf[i] = len(l.nodeOf)
		l.nodeOf = append(l.nodeOf, i)
	}
	b := &l.asm
	b.reset(n - 1)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("sparse: self-loop at node %d", e.U)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("sparse: edge (%d,%d) has non-positive weight %g", e.U, e.V, e.Weight)
		}
		iu, iv := l.indexOf[e.U], l.indexOf[e.V]
		if iu >= 0 {
			b.add(iu, iu, e.Weight)
		}
		if iv >= 0 {
			b.add(iv, iv, e.Weight)
		}
		if iu >= 0 && iv >= 0 {
			b.add(iu, iv, -e.Weight)
			b.add(iv, iu, -e.Weight)
		}
	}
	l.mat = b.buildInto(l.mat)
	l.diag = l.mat.DiagInto(l.diag)
	// IC(0) exists for the grounded Laplacian (an M-matrix); fall back to
	// Jacobi if a degenerate input breaks the factorization.
	ic, err := NewIC0Into(l.icStore, l.mat)
	if err != nil {
		l.ic = nil
	} else {
		l.ic = ic
		l.icStore = ic
	}
	return l, nil
}
