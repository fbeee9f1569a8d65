package sparse

import (
	"testing"
)

// FuzzCSRMatVec drives the COO→CSR assembly and the CSR mat-vec with
// fuzzer-chosen entry lists, cross-checking the structural invariants of
// the compressed form and the product against a naive coordinate-format
// accumulation. Run the seeds as normal tests, or explore with
// `go test -fuzz=FuzzCSRMatVec`.
func FuzzCSRMatVec(f *testing.F) {
	f.Add([]byte{3, 0, 0, 8, 1, 1, 16, 2, 2, 24})
	f.Add([]byte{5, 0, 1, 1, 1, 0, 1, 0, 1, 255, 4, 4, 7})
	f.Add([]byte{1, 0, 0, 100})
	f.Add([]byte{8, 7, 7, 1, 7, 7, 255, 0, 7, 3, 7, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		data = data[1:]

		type coo struct {
			r, c int
			v    float64
		}
		var entries []coo
		b := newBuilder(n)
		for i := 0; i+2 < len(data) && len(entries) < 64; i += 3 {
			e := coo{
				r: int(data[i]) % n,
				c: int(data[i+1]) % n,
				v: float64(int8(data[i+2])) / 8,
			}
			entries = append(entries, e)
			b.add(e.r, e.c, e.v)
		}
		m := b.build()

		// Structural invariants of the compressed form.
		if m.N != n {
			t.Fatalf("dim %d, want %d", m.N, n)
		}
		if m.RowPtr[0] != 0 || m.RowPtr[n] != m.NNZ() {
			t.Fatalf("RowPtr endpoints %d,%d with nnz %d", m.RowPtr[0], m.RowPtr[n], m.NNZ())
		}
		for r := 0; r < n; r++ {
			if m.RowPtr[r] > m.RowPtr[r+1] {
				t.Fatalf("RowPtr not monotone at row %d", r)
			}
			for k := m.RowPtr[r] + 1; k < m.RowPtr[r+1]; k++ {
				if m.Col[k-1] >= m.Col[k] {
					t.Fatalf("row %d columns not strictly increasing", r)
				}
			}
		}

		// Mat-vec against a naive coordinate accumulation.
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		got := make([]float64, n)
		m.MulVec(got, x)
		want := make([]float64, n)
		for _, e := range entries {
			want[e.r] += e.v * x[e.c]
		}
		for i := range want {
			if !ApproxEqualTol(got[i], want[i], 1e-9) {
				t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want[i])
			}
		}

		// At must agree with the accumulated entries exactly where stored.
		for r := 0; r < n; r++ {
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				if m.Val[k] == 0 {
					t.Fatalf("explicit zero stored at (%d,%d): buildInto must drop cancelled entries", r, m.Col[k])
				}
			}
		}
	})
}
