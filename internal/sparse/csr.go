// Package sparse provides the linear-algebra substrate for SPROUT's nodal
// analysis (paper Algorithm 3, Eqs. 3-4): symmetric sparse matrices in CSR
// form, graph Laplacians with a grounded reference node, a preconditioned
// conjugate-gradient solver for the (symmetric positive definite) grounded
// Laplacian systems, and a dense Cholesky factorization used for small
// systems and as a cross-validation oracle in tests.
//
// The paper notes (§II-H) that solving the Laplacian systems consumes up to
// 90% of SPROUT's runtime, with sparse-solver complexity O(|V|^q),
// q ∈ [1.5, 3]. CG preconditioned by IC(0) (Jacobi where the factorization
// breaks down) on 2-D grid Laplacians sits near the bottom of that range,
// matching the paper's best case. In this implementation the
// grow/refine/reheat loop, solves included, is the largest stage of every
// perfbench workload: 98% of a two-rail route at 2-unit tile pitch and 56%
// of a six-rail route (perfbench/NOTES.md). About half of the loop's CPU
// is CG, so the iteration fuses its reductions into the passes that
// produce their operands, always in the order a separate dot product
// would sum them: the results are bit-identical to the unfused loop.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Matrix is a square operator that can multiply a vector.
type Matrix interface {
	// Dim returns the matrix dimension n (the matrix is n x n).
	Dim() int
	// MulVec computes dst = A*x. dst and x must have length Dim and must
	// not alias.
	MulVec(dst, x []float64)
}

// entry is a coordinate-format matrix element used during assembly.
type entry struct {
	row, col int
	val      float64
}

// Builder accumulates coordinate-format entries; duplicate (row, col)
// entries are summed, which makes stamping conductances idiomatic.
type Builder struct {
	n       int
	entries []entry
}

// NewBuilder returns a Builder for an n x n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Reset reuses the builder's entry storage for a fresh n x n assembly.
// Repeated assemblies through a reset builder are allocation-free once the
// entry buffer has grown to the working-set size.
func (b *Builder) Reset(n int) {
	b.n = n
	b.entries = b.entries[:0]
}

// Add accumulates v at (row, col). Out-of-range indices panic: assembly
// indices are program logic, not data.
func (b *Builder) Add(row, col int, v float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range for n=%d", row, col, b.n))
	}
	b.entries = append(b.entries, entry{row, col, v})
}

// AddSym accumulates v at (row, col) and (col, row).
func (b *Builder) AddSym(row, col int, v float64) {
	b.Add(row, col, v)
	if row != col {
		b.Add(col, row, v)
	}
}

// Build assembles the CSR matrix, summing duplicates and dropping explicit
// zeros that cancelled out.
func (b *Builder) Build() *CSR {
	return b.BuildInto(nil)
}

// BuildInto assembles into m, reusing its backing slices when they are
// large enough (nil m allocates a fresh matrix). The resulting matrix is
// element-for-element identical to Build on the same entry sequence: the
// sort and duplicate summation run over the same values in the same order,
// only the destination storage differs.
//
// The sort is not stable, so the order in which equal (row, col) entries
// are summed is whatever pdqsort leaves them in. slices.SortFunc runs the
// same generated pdqsort as sort.Slice, comparison for comparison and swap
// for swap, so the typed sort keeps every duplicate sum bit-identical
// while skipping sort.Slice's reflection-based swapper.
func (b *Builder) BuildInto(m *CSR) *CSR {
	slices.SortFunc(b.entries, compareEntries)
	if m == nil {
		m = &CSR{}
	}
	m.N = b.n
	m.RowPtr = growInts(m.RowPtr, b.n+1)
	for i := range m.RowPtr {
		m.RowPtr[i] = 0
	}
	m.Col = m.Col[:0]
	m.Val = m.Val[:0]
	for i := 0; i < len(b.entries); {
		j := i
		v := 0.0
		for j < len(b.entries) && b.entries[j].row == b.entries[i].row && b.entries[j].col == b.entries[i].col {
			v += b.entries[j].val
			j++
		}
		if v != 0 {
			m.Col = append(m.Col, b.entries[i].col)
			m.Val = append(m.Val, v)
			m.RowPtr[b.entries[i].row+1]++
		}
		i = j
	}
	for r := 0; r < b.n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// compareEntries orders entries by (row, col); equal keys compare equal.
func compareEntries(a, b entry) int {
	if c := cmp.Compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.col, b.col)
}

// growInts returns s resized to length n, reusing its backing array when
// the capacity suffices. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats returns s resized to length n, reusing its backing array when
// the capacity suffices. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// Dim implements Matrix.
func (m *CSR) Dim() int { return m.N }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec implements Matrix: dst = A*x.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d x=%d n=%d", len(dst), len(x), m.N))
	}
	for r := range dst {
		dst[r] = m.rowDot(r, x)
	}
}

// rowDot returns row r of A times x, summed in stored column order. The
// row slices let the compiler drop the per-element bounds checks.
func (m *CSR) rowDot(r int, x []float64) float64 {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	cols, vals := m.Col[lo:hi], m.Val[lo:hi]
	vals = vals[:len(cols)]
	sum := 0.0
	for k, c := range cols {
		sum += vals[k] * x[c]
	}
	return sum
}

// mulVecDot computes dst = A*x and returns xᵀ(A*x) in one row-order pass.
// The product entries and the reduction are summed in exactly the order
// MulVec followed by dot(x, dst) sums them, so the results are
// bit-identical to that pair of calls.
func (m *CSR) mulVecDot(dst, x []float64) float64 {
	if len(dst) != m.N || len(x) != m.N {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d x=%d n=%d", len(dst), len(x), m.N))
	}
	x = x[:len(dst)]
	s := 0.0
	for r := range dst {
		v := m.rowDot(r, x)
		dst[r] = v
		s += x[r] * v
	}
	return s
}

// At returns the element at (row, col); zero if not stored.
func (m *CSR) At(row, col int) float64 {
	for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
		if m.Col[k] == col {
			return m.Val[k]
		}
	}
	return 0
}

// Diag extracts the diagonal into a new slice.
func (m *CSR) Diag() []float64 {
	return m.DiagInto(nil)
}

// DiagInto extracts the diagonal into dst, reusing its backing array when
// large enough (nil dst allocates).
func (m *CSR) DiagInto(dst []float64) []float64 {
	dst = growFloats(dst, m.N)
	for r := 0; r < m.N; r++ {
		dst[r] = m.At(r, r)
	}
	return dst
}

// Dense converts the matrix to dense form (for tests and small systems).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.N)
	for r := 0; r < m.N; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Set(r, m.Col[k], m.Val[k])
		}
	}
	return d
}
