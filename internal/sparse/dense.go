package sparse

import (
	"fmt"
	"math"
)

// Dense is a row-major dense square matrix, used for small systems and as a
// cross-validation oracle for the iterative solver.
type Dense struct {
	N int
	A []float64
}

// NewDense returns a zeroed n x n dense matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, A: make([]float64, n*n)}
}

// At returns the element at (r, c).
func (d *Dense) At(r, c int) float64 { return d.A[r*d.N+c] }

// Set assigns the element at (r, c).
func (d *Dense) Set(r, c int, v float64) { d.A[r*d.N+c] = v }

// Addd accumulates v at (r, c).
func (d *Dense) Addd(r, c int, v float64) { d.A[r*d.N+c] += v }

// Cholesky computes the lower-triangular factor L with A = L*Lᵀ.
// It returns an error when the matrix is not (numerically) symmetric
// positive definite.
func (d *Dense) Cholesky() (*Cholesky, error) {
	n := d.N
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		sum := d.At(j, j)
		for k := 0; k < j; k++ {
			sum -= l[j*n+k] * l[j*n+k]
		}
		if sum <= 0 || math.IsNaN(sum) {
			return nil, fmt.Errorf("sparse: matrix not SPD at pivot %d (value %g)", j, sum)
		}
		l[j*n+j] = math.Sqrt(sum)
		inv := 1 / l[j*n+j]
		for i := j + 1; i < n; i++ {
			s := d.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s * inv
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Cholesky holds a lower-triangular factorization A = L*Lᵀ.
type Cholesky struct {
	n int
	l []float64
}

// Solve computes x with A*x = b by forward and back substitution.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.n
	if len(b) != n {
		panic(fmt.Sprintf("sparse: Cholesky.Solve dim %d, want %d", len(b), n))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * y[k]
		}
		y[i] = s / c.l[i*n+i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	return x
}
