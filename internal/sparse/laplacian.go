package sparse

import (
	"context"
	"fmt"
	"math"
)

// Laplacian is a grounded graph Laplacian: the full Laplacian of a weighted
// undirected graph with one node chosen as the voltage reference (paper
// Eq. 3 uses "a grounded Laplacian matrix" L so that V = L⁻¹E is well
// defined). The grounded matrix is symmetric positive definite whenever the
// graph is connected.
type Laplacian struct {
	n       int
	ground  int
	mat     *CSR
	diag    []float64
	ic      *IC0  // incomplete Cholesky preconditioner (nil on breakdown)
	indexOf []int // full node id -> grounded index, -1 for ground
	nodeOf  []int // grounded index -> full node id

	// Assembly arenas retained for ReassembleLaplacian: the coordinate
	// builder and the IC(0) storage (kept even while ic is nil so a later
	// reassembly can reuse it).
	asm     builder
	icStore *IC0
}

// ReassembleLaplacian, the one constructor of a Laplacian, assembles into
// dst the grounded Laplacian of the graph whose symmetric adjacency is
// given in CSR form (a graph.Graph's CSR, or a caller's own): node u's
// neighbours are col[rowPtr[u]:rowPtr[u+1]], each in [0, n), with
// conductances w at the same positions, and the node count n is
// len(rowPtr)-1. It reuses dst's
// matrix, preconditioner and index storage (nil dst allocates a fresh
// Laplacian). Each undirected edge sits in both of its endpoints' rows and
// is stamped once, from the row of its smaller endpoint, in row order:
// rows that list their columns in ascending order stamp the edges in
// sorted (u, v) order. The builder then receives the same entry sequence
// on every call with the same input, so the matrix and its IC(0) factor
// are bit-identical whether dst is fresh or reused. Self-loops and
// non-positive, NaN or infinite weights are rejected; on error dst is
// unusable until a later reassembly succeeds.
func ReassembleLaplacian(dst *Laplacian, rowPtr, col []int, w []float64, ground int) (*Laplacian, error) {
	n := len(rowPtr) - 1
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
	for u := 0; u < n; u++ {
		iu := l.indexOf[u]
		for k := rowPtr[u]; k < rowPtr[u+1]; k++ {
			v, wt := col[k], w[k]
			if v <= u {
				if v == u {
					return nil, fmt.Errorf("sparse: self-loop at node %d", u)
				}
				continue
			}
			if !(wt > 0) || wt > math.MaxFloat64 {
				return nil, fmt.Errorf("sparse: edge (%d,%d) weight %g must be positive and finite", u, v, wt)
			}
			iv := l.indexOf[v]
			if iu >= 0 {
				b.add(iu, iu, wt)
			}
			if iv >= 0 {
				b.add(iv, iv, wt)
			}
			if iu >= 0 && iv >= 0 {
				b.add(iu, iv, -wt)
				b.add(iv, iu, -wt)
			}
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

// Matrix exposes the grounded CSR matrix (dimension n-1).
func (l *Laplacian) Matrix() *CSR { return l.mat }

// Preconditioner names the preconditioner the primary rung will use:
// "ic0" when the incomplete Cholesky factorization succeeded at assembly,
// "jacobi" when it broke down and the solver fell back to the diagonal.
func (l *Laplacian) Preconditioner() string {
	if l.ic != nil {
		return "ic0"
	}
	return "jacobi"
}

// NNZ returns the number of stored nonzeros in the grounded matrix.
func (l *Laplacian) NNZ() int { return l.mat.NNZ() }

// SolveCtx computes node potentials for the injected currents b
// (full-length n; the entry at the ground node is ignored — ground absorbs
// the return current). The result is full-length with the ground entry
// fixed at 0. warm, when non-nil, seeds the iteration with a previous
// full-length solution. ws (a fresh Workspace when nil) stages the
// grounded vectors and the CG iteration vectors, so repeated solves
// through one workspace are allocation-free; the result aliases it and is
// only valid until its next solve.
//
// The solve runs a resilience ladder: CG with IC(0) at the default
// tolerance, then a cold Jacobi retry at a relaxed tolerance, then a dense
// Cholesky factorization for small systems. The attempts list every rung
// tried, the accepted one last, so SolveStats.Record sees successful
// solves too. When every rung fails the error is a *SolveError carrying
// per-rung iteration counts and residuals; cancellation aborts the ladder
// with ctx.Err().
func (l *Laplacian) SolveCtx(ctx context.Context, b []float64, warm []float64, ws *Workspace) ([]float64, []RungAttempt, error) {
	if len(b) != l.n {
		return nil, nil, fmt.Errorf("sparse: Solve rhs dim %d, want %d", len(b), l.n)
	}
	if ws == nil {
		ws = &Workspace{}
	}
	rhs := vec(&ws.rhs, l.n-1)
	for gi, node := range l.nodeOf {
		rhs[gi] = b[node]
	}
	var x0 []float64
	if warm != nil {
		if len(warm) != l.n {
			return nil, nil, fmt.Errorf("sparse: warm start dim %d, want %d", len(warm), l.n)
		}
		x0 = vec(&ws.x0, l.n-1)
		for gi, node := range l.nodeOf {
			x0[gi] = warm[node]
		}
	}
	x, attempts, err := l.solveLadder(ctx, rhs, x0, ws)
	if err != nil {
		return nil, attempts, fmt.Errorf("sparse: laplacian solve: %w", err)
	}
	out := vec(&ws.out, l.n)
	out[l.ground] = 0
	for gi, node := range l.nodeOf {
		out[node] = x[gi]
	}
	return out, attempts, nil
}
