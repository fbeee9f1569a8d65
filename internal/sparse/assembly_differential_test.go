package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortEntriesOracle is the assembly sort buildInto used before it moved to
// slices.SortFunc: sort.Slice with a (row, col) less function. Neither
// sort is stable, so the order it leaves equal keys in is what decides
// the summation order of duplicate entries.
func sortEntriesOracle(es []entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].row != es[j].row {
			return es[i].row < es[j].row
		}
		return es[i].col < es[j].col
	})
}

// buildIntoOracle is buildInto as it was with the sort.Slice assembly
// sort, building a fresh matrix.
func buildIntoOracle(b *builder) *CSR {
	sortEntriesOracle(b.entries)
	m := &CSR{N: b.n, RowPtr: make([]int, b.n+1)}
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

// randomEntries draws m entries over an n×n pattern laid out by pattern:
// random, ascending, descending, all on one key, a sawtooth, or nearly
// sorted. Keys repeat heavily; every value is distinct, so the order of
// equal keys shows in the value sequence.
func randomEntries(r *rand.Rand, n, m int, pattern int) []entry {
	es := make([]entry, m)
	for i := range es {
		es[i] = entry{row: r.Intn(n), col: r.Intn(n), val: float64(i+1) + r.Float64()}
	}
	switch pattern {
	case 1:
		slices.SortStableFunc(es, compareEntries)
	case 2:
		slices.SortStableFunc(es, compareEntries)
		slices.Reverse(es)
	case 3:
		for i := range es {
			es[i].row, es[i].col = 0, 0
		}
	case 4:
		for i := range es {
			es[i].row, es[i].col = (i%17)%n, (i/17)%n
		}
	case 5:
		slices.SortStableFunc(es, compareEntries)
		for k := r.Intn(4); k > 0 && m > 1; k-- {
			i, j := r.Intn(m), r.Intn(m)
			es[i], es[j] = es[j], es[i]
		}
	}
	return es
}

// TestAssemblySortMatchesSortSlice pins the typed assembly sort to the
// sort.Slice it replaced: on entry lists with many duplicate keys, and at
// sizes on both sides of pdqsort's insertion-sort (12), ninther (50) and
// pattern-breaking thresholds, slices.SortFunc must leave exactly the
// same entry sequence, and buildInto must build a bit-identical CSR.
func TestAssemblySortMatchesSortSlice(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 11, 12, 13, 24, 49, 50, 51, 64, 100, 127, 128, 129, 500, 1000, 4096, 20000}
	for _, m := range sizes {
		for pattern := 0; pattern < 6; pattern++ {
			for seed := int64(0); seed < 4; seed++ {
				r := rand.New(rand.NewSource(seed*1000 + int64(m) + int64(pattern)*7))
				n := 1 + r.Intn(6)
				if seed%2 == 1 {
					n = 1 + r.Intn(1+m/4)
				}
				name := fmt.Sprintf("m=%d pattern=%d seed=%d n=%d", m, pattern, seed, n)
				es := randomEntries(r, n, m, pattern)

				got, want := slices.Clone(es), slices.Clone(es)
				slices.SortFunc(got, compareEntries)
				sortEntriesOracle(want)
				for i := range got {
					if got[i].row != want[i].row || got[i].col != want[i].col ||
						math.Float64bits(got[i].val) != math.Float64bits(want[i].val) {
						t.Fatalf("%s: entry %d is %+v, sort.Slice leaves %+v", name, i, got[i], want[i])
					}
				}

				bg, bw := newBuilder(n), newBuilder(n)
				for _, e := range es {
					bg.add(e.row, e.col, e.val)
					bw.add(e.row, e.col, e.val)
				}
				mg, mw := bg.buildInto(nil), buildIntoOracle(bw)
				if mg.N != mw.N {
					t.Fatalf("%s: N %d vs %d", name, mg.N, mw.N)
				}
				bitEqualInts(t, name+" RowPtr", mg.RowPtr, mw.RowPtr)
				bitEqualInts(t, name+" Col", mg.Col, mw.Col)
				bitEqualFloats(t, name+" Val", mg.Val, mw.Val)
			}
		}
	}
}

// TestUpdateXRMatchesSeparatePasses pins the fused CG step to the update
// loop followed by dot(r, r) that it replaced: the iterate, the residual
// and rᵀr must agree bit for bit.
func TestUpdateXRMatchesSeparatePasses(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64, 1000} {
		x, res, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], res[i], p[i], ap[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		alpha := r.ExpFloat64()
		wx, wr := slices.Clone(x), slices.Clone(res)
		for i := range wx {
			wx[i] += alpha * p[i]
			wr[i] -= alpha * ap[i]
		}
		want := dot(wr, wr)
		got := updateXR(x, res, p, ap, alpha)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: rᵀr %x, separate passes %x", n, got, want)
		}
		bitEqualFloats(t, fmt.Sprintf("n=%d x", n), x, wx)
		bitEqualFloats(t, fmt.Sprintf("n=%d r", n), res, wr)
	}
}
