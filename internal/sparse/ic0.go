package sparse

import (
	"fmt"
	"math"
)

// IC0 is a zero-fill incomplete Cholesky factorization A ≈ L·Lᵀ used as a
// CG preconditioner. Grounded graph Laplacians are symmetric M-matrices,
// for which IC(0) exists and is stable; it typically halves the CG
// iteration count versus Jacobi on 2-D grid problems, tightening SPROUT's
// position at the q ≈ 1.5 end of the paper's solver-cost band (Eq. 7).
type IC0 struct {
	n      int
	rowPtr []int
	col    []int // lower-triangle column indices per row (ascending), diag last
	val    []float64
	diag   []int // index of the diagonal entry within each row
}

// NewIC0 computes the incomplete factor of a symmetric positive definite
// CSR matrix, keeping only the sparsity of the lower triangle of A.
func NewIC0(a *CSR) (*IC0, error) {
	return NewIC0Into(nil, a)
}

// NewIC0Into computes the factor into dst, reusing its storage when large
// enough (nil dst allocates). The factorization is numerically identical
// to NewIC0 — every buffer is fully rewritten before use. On error dst's
// contents are unspecified; callers must not use a factor whose
// construction failed.
func NewIC0Into(dst *IC0, a *CSR) (*IC0, error) {
	n := a.N
	ic := dst
	if ic == nil {
		ic = &IC0{}
	}
	ic.n = n
	ic.rowPtr = grow(ic.rowPtr, n+1)
	ic.rowPtr[0] = 0
	ic.diag = grow(ic.diag, n)
	ic.col = ic.col[:0]
	ic.val = ic.val[:0]
	// Collect the lower triangle (including diagonal) row by row.
	for r := 0; r < n; r++ {
		hasDiag := false
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			c := a.Col[k]
			if c > r {
				continue
			}
			if c == r {
				hasDiag = true
			}
			ic.col = append(ic.col, c)
			ic.val = append(ic.val, a.Val[k])
		}
		if !hasDiag {
			return nil, fmt.Errorf("sparse: IC0 row %d has no diagonal", r)
		}
		ic.rowPtr[r+1] = len(ic.col)
	}
	// In-place IKJ factorization over the fixed pattern.
	// For each row r: for each stored (r, c) with c < r:
	//   L[r][c] = (A[r][c] - Σ_k L[r][k]·L[c][k]) / L[c][c]
	// and the diagonal: L[r][r] = sqrt(A[r][r] - Σ L[r][k]²).
	for r := 0; r < n; r++ {
		rowStart, rowEnd := ic.rowPtr[r], ic.rowPtr[r+1]
		for k := rowStart; k < rowEnd; k++ {
			c := ic.col[k]
			if c == r {
				// Diagonal entry.
				sum := ic.val[k]
				for kk := rowStart; kk < k; kk++ {
					sum -= ic.val[kk] * ic.val[kk]
				}
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("sparse: IC0 breakdown at row %d (pivot %g)", r, sum)
				}
				ic.val[k] = math.Sqrt(sum)
				ic.diag[r] = k
				continue
			}
			// Off-diagonal: dot the overlapping patterns of rows r and c.
			sum := ic.val[k]
			cStart, cEnd := ic.rowPtr[c], ic.rowPtr[c+1]
			i, j := rowStart, cStart
			//lint:ignore ctxdelegate two-pointer merge over two finite CSR rows: each step advances i or j, so the loop is bounded by the row lengths
			for i < k && j < cEnd-1 { // exclude c's diagonal (last entry)
				ci, cj := ic.col[i], ic.col[j]
				switch {
				case ci == cj:
					sum -= ic.val[i] * ic.val[j]
					i++
					j++
				case ci < cj:
					i++
				default:
					j++
				}
			}
			ic.val[k] = sum / ic.val[ic.diag[c]]
		}
	}
	return ic, nil
}

// Apply computes dst = (L·Lᵀ)⁻¹ r by forward and back substitution.
// dst and r must not alias.
func (ic *IC0) Apply(dst, r []float64) {
	n := ic.n
	// Forward solve L·y = r. The strict-lower row slices let the compiler
	// drop the per-element bounds checks; the summation order is unchanged.
	for i := 0; i < n; i++ {
		lo, d := ic.rowPtr[i], ic.diag[i]
		cols, vals := ic.col[lo:d], ic.val[lo:d]
		vals = vals[:len(cols)]
		sum := r[i]
		for k, c := range cols {
			sum -= vals[k] * dst[c]
		}
		dst[i] = sum / ic.val[d]
	}
	// Back solve Lᵀ·x = y, traversing columns in reverse.
	for i := n - 1; i >= 0; i-- {
		lo, d := ic.rowPtr[i], ic.diag[i]
		dst[i] /= ic.val[d]
		xi := dst[i]
		cols, vals := ic.col[lo:d], ic.val[lo:d]
		vals = vals[:len(cols)]
		for k, c := range cols {
			dst[c] -= vals[k] * xi
		}
	}
}
