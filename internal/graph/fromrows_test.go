package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestFromRowsKeepsRows checks that FromRows lays out exactly the rows it
// is given: random graphs whose edges are listed once each in ascending
// (U, V) order, so that every row of their FromEdges layout strictly
// ascends, come back from FromRows with the same rows, the same counts
// and the slices themselves as storage.
func TestFromRowsKeepsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		seen := map[[2]int]bool{}
		var edges []Edge
		for k := rng.Intn(3 * n); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u > v {
				u, v = v, u
			}
			if u != v && !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				edges = append(edges, Edge{u, v, float64(rng.Intn(5))})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			return edges[i].U < edges[j].U || edges[i].U == edges[j].U && edges[i].V < edges[j].V
		})
		want, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		rowPtr, to, w := want.CSR()
		rowPtr, to, w = append([]int(nil), rowPtr...), append([]int(nil), to...), append([]float64(nil), w...)
		got, err := FromRows(rowPtr, to, w)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != n || got.M() != len(edges) || !reflect.DeepEqual(rows(got), rows(want)) {
			t.Fatalf("trial %d: FromRows n=%d m=%d rows %v; FromEdges rows %v", trial, got.N(), got.M(), rows(got), rows(want))
		}
		for u := 0; u < n; u++ {
			row, _ := got.Adj(u)
			if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
				t.Fatalf("trial %d: row %d = %v does not ascend", trial, u, row)
			}
		}
		if gr, gt, gw := got.CSR(); &gr[0] != &rowPtr[0] || len(gt) > 0 && (&gt[0] != &to[0] || &gw[0] != &w[0]) {
			t.Fatalf("trial %d: FromRows copied its rows", trial)
		}
	}
}

// TestFromRowsRejects checks the three rejections FromRows shares with
// FromEdges, with the same error text: a neighbour out of range (above n
// or negative), a self-loop and a negative weight.
func TestFromRowsRejects(t *testing.T) {
	for name, c := range map[string]struct {
		rowPtr, to []int
		w          []float64
		want       string
	}{
		"out of range": {[]int{0, 1, 2, 2}, []int{1, 3}, []float64{1, 1}, "graph: edge (1,3) out of range for n=3"},
		"negative id":  {[]int{0, 1, 1, 1}, []int{-1}, []float64{1}, "graph: edge (0,-1) out of range for n=3"},
		"self-loop":    {[]int{0, 1, 2, 3}, []int{1, 0, 2}, []float64{1, 1, 1}, "graph: self-loop at 2"},
		"negative w":   {[]int{0, 1, 2, 2}, []int{1, 0}, []float64{-1, -1}, "graph: negative weight -1 on (0,1)"},
	} {
		g, err := FromRows(c.rowPtr, c.to, c.w)
		if err == nil || g != nil || err.Error() != c.want {
			t.Fatalf("%s: FromRows = %v, %v; want error %q", name, g, err, c.want)
		}
	}
}
