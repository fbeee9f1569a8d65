package sparse

import "fmt"

// reassembleLaplacianEdges is the edge-list assembly that
// ReassembleLaplacian replaced, kept as a test oracle with its body
// unchanged. It assembles the grounded Laplacian of an n-node edge list
// into dst, reusing dst's storage (nil dst allocates), and stamps the
// edges into the builder in list order. Fed the sorted edge list of a
// graph, it must give the matrix, diagonal, IC(0) factor and solves of the
// CSR path bit for bit (FuzzLaplacianFromAdjacency).
func reassembleLaplacianEdges(dst *Laplacian, n int, edges []WeightedEdge, ground int) (*Laplacian, error) {
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
	if l.asm == nil {
		l.asm = NewBuilder(n - 1)
	} else {
		l.asm.Reset(n - 1)
	}
	b := l.asm
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("sparse: self-loop at node %d", e.U)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("sparse: edge (%d,%d) has non-positive weight %g", e.U, e.V, e.W)
		}
		iu, iv := l.indexOf[e.U], l.indexOf[e.V]
		if iu >= 0 {
			b.Add(iu, iu, e.W)
		}
		if iv >= 0 {
			b.Add(iv, iv, e.W)
		}
		if iu >= 0 && iv >= 0 {
			b.Add(iu, iv, -e.W)
			b.Add(iv, iu, -e.W)
		}
	}
	l.mat = b.BuildInto(l.mat)
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
