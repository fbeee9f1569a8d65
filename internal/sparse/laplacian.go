package sparse

import (
	"context"
	"errors"
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

	// Assembly arenas: the coordinate builder ReassembleLaplacian sorts
	// through, and the IC(0) storage (kept even while ic is nil so a later
	// assembly can reuse it).
	asm     builder
	icStore *IC0
}

// ReassembleLaplacian assembles into dst the grounded Laplacian of the
// graph whose symmetric adjacency is given in CSR form (a graph.Graph's
// CSR, or a caller's own): node u's neighbours are
// col[rowPtr[u]:rowPtr[u+1]], each in [0, n), with conductances w at the
// same positions, and the node count n is len(rowPtr)-1. It reuses dst's
// matrix, preconditioner and index storage (nil dst allocates a fresh
// Laplacian). Each undirected edge sits in both of its endpoints' rows and
// is stamped once, from the row of its smaller endpoint, in row order:
// rows that list their columns in ascending order stamp the edges in
// sorted (u, v) order. The builder then receives the same entry sequence
// on every call with the same input, so the matrix and its IC(0) factor
// are bit-identical whether dst is fresh or reused. Self-loops and
// non-positive, NaN or infinite weights are rejected; on error dst is
// unusable until a later assembly succeeds.
func ReassembleLaplacian(dst *Laplacian, rowPtr, col []int, w []float64, ground int) (*Laplacian, error) {
	l, err := dst.reset(len(rowPtr)-1, ground)
	if err != nil {
		return nil, err
	}
	n := l.n
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
	l.factor()
	return l, nil
}

// StampLaplacian assembles into dst the grounded Laplacian that
// ReassembleLaplacian assembles from the same arguments, in O(nnz) and
// without coordinate entries or a sort: each non-ground row is written in
// place in one walk over its neighbours, the off-diagonals in column order
// with the diagonal at its column position. The diagonal is the sum of the
// row's conductances in column order; ReassembleLaplacian's sort sums them
// in an order of its own, so the two agree bit for bit wherever those sums
// are exact in any order (conductances 1 and 0.5, say), and may differ in
// a diagonal's last bits otherwise.
//
// The adjacency must be symmetric (the weight of (u, v) equal to that of
// (v, u)): ReassembleLaplacian reads each edge from its smaller
// endpoint's row, StampLaplacian from both. Every row must list its
// columns in strictly ascending order, as a tile graph's rows do. A row
// that does not, and the inputs ReassembleLaplacian rejects, fail with an
// error naming the row. On error dst is unusable until a later assembly
// succeeds.
func StampLaplacian(dst *Laplacian, rowPtr, col []int, w []float64, ground int) (*Laplacian, error) {
	l, err := dst.reset(len(rowPtr)-1, ground)
	if err != nil {
		return nil, err
	}
	n := l.n
	if l.mat == nil {
		l.mat = &CSR{}
	}
	m := l.mat
	m.N = n - 1
	m.RowPtr = grow(m.RowPtr, n)
	m.RowPtr[0] = 0
	m.Col, m.Val = m.Col[:0], m.Val[:0]
	l.diag = grow(l.diag, n-1)
	for u := 0; u < n; u++ {
		lo, hi := rowPtr[u], rowPtr[u+1]
		cols, ws := col[lo:hi], w[lo:hi]
		ws = ws[:len(cols)]
		iu := l.indexOf[u]
		d, at, prev := 0.0, -1, -1
		for k, v := range cols {
			wt := ws[k]
			switch {
			case v == u:
				return nil, fmt.Errorf("sparse: row %d: self-loop", u)
			case v < 0 || v >= n:
				return nil, fmt.Errorf("sparse: row %d: column %d out of range [0,%d)", u, v, n)
			case v <= prev:
				return nil, fmt.Errorf("sparse: row %d: column %d after %d, columns must strictly ascend", u, v, prev)
			case !(wt > 0) || wt > math.MaxFloat64:
				return nil, fmt.Errorf("sparse: row %d: column %d weight %g must be positive and finite", u, v, wt)
			}
			prev = v
			if iu < 0 {
				continue // the ground row is only validated
			}
			d += wt
			if v == ground {
				continue
			}
			if v > u && at < 0 {
				at = len(m.Col)
				m.Col, m.Val = append(m.Col, iu), append(m.Val, 0)
			}
			m.Col, m.Val = append(m.Col, l.indexOf[v]), append(m.Val, -wt)
		}
		if iu < 0 {
			continue
		}
		// A row with no neighbours stores no diagonal, as the builder
		// stores no entry that sums to zero.
		if at < 0 && d != 0 {
			at = len(m.Col)
			m.Col, m.Val = append(m.Col, iu), append(m.Val, 0)
		}
		if at >= 0 {
			m.Val[at] = d
		}
		l.diag[iu] = d
		m.RowPtr[iu+1] = len(m.Col)
	}
	l.factor()
	return l, nil
}

// reset validates the node count and ground of an assembly and prepares
// l (a fresh Laplacian when nil) for it: the size, the ground, and the
// index maps between full and grounded node ids.
func (l *Laplacian) reset(n, ground int) (*Laplacian, error) {
	if n <= 1 {
		return nil, fmt.Errorf("sparse: laplacian needs n >= 2, got %d", n)
	}
	if ground < 0 || ground >= n {
		return nil, fmt.Errorf("sparse: ground node %d out of range [0,%d)", ground, n)
	}
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
	return l, nil
}

// factor builds the IC(0) preconditioner of the assembled matrix into the
// retained factor storage. IC(0) exists for the grounded Laplacian (an
// M-matrix); a degenerate input that breaks the factorization falls back
// to Jacobi.
func (l *Laplacian) factor() {
	ic, err := NewIC0Into(l.icStore, l.mat)
	if err != nil {
		l.ic = nil
		return
	}
	l.ic = ic
	l.icStore = ic
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

// DiffLaplacians returns nil when a and b hold bit-identical assembled
// systems — grounded matrix, diagonal and IC(0) factor — and otherwise an
// error naming the first differing entry of each part that differs. The
// differential tests of the two constructors compare through it.
func DiffLaplacians(a, b *Laplacian) error {
	if a.n != b.n || a.ground != b.ground {
		return fmt.Errorf("sparse: n=%d ground=%d vs n=%d ground=%d", a.n, a.ground, b.n, b.ground)
	}
	if (a.ic == nil) != (b.ic == nil) {
		return fmt.Errorf("sparse: preconditioner %q vs %q", a.Preconditioner(), b.Preconditioner())
	}
	err := errors.Join(
		diffInts("matrix RowPtr", a.mat.RowPtr, b.mat.RowPtr),
		diffInts("matrix Col", a.mat.Col, b.mat.Col),
		diffBits("matrix Val", a.mat.Val, b.mat.Val),
		diffBits("diagonal", a.diag, b.diag),
	)
	if err != nil || a.ic == nil {
		return err
	}
	return errors.Join(
		diffInts("IC(0) rowPtr", a.ic.rowPtr, b.ic.rowPtr),
		diffInts("IC(0) col", a.ic.col, b.ic.col),
		diffInts("IC(0) diag", a.ic.diag, b.ic.diag),
		diffBits("IC(0) val", a.ic.val, b.ic.val),
	)
}

func diffInts(what string, a, b []int) error {
	if len(a) != len(b) {
		return fmt.Errorf("sparse: %s length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("sparse: %s[%d] %d vs %d", what, i, a[i], b[i])
		}
	}
	return nil
}

func diffBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("sparse: %s length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("sparse: %s[%d] %x vs %x", what, i, a[i], b[i])
		}
	}
	return nil
}
