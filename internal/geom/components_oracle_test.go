package geom

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// componentsOracle is the original Components: rectangles grouped by
// union-find root through a map, each group rebuilt with RegionFromRects.
// Components must return the same regions in the same order.
func componentsOracle(g Region) []Region {
	rects := g.Rects()
	n := len(rects)
	if n == 0 {
		return nil
	}
	var uf unionFind
	uf.reset(n)
	type bandRange struct{ lo, hi int } // rect index range of a band
	var ranges []bandRange
	idx := 0
	for _, b := range g.bands {
		ranges = append(ranges, bandRange{idx, idx + len(b.Spans)})
		idx += len(b.Spans)
	}
	for bi := 0; bi+1 < len(g.bands); bi++ {
		lower, upper := g.bands[bi], g.bands[bi+1]
		if lower.Y1 != upper.Y0 {
			continue
		}
		ju := 0
		for jl, s := range lower.Spans {
			for ju < len(upper.Spans) && upper.Spans[ju].X1 <= s.X0 {
				ju++
			}
			for k := ju; k < len(upper.Spans) && upper.Spans[k].X0 < s.X1; k++ {
				uf.union(ranges[bi].lo+jl, ranges[bi+1].lo+k)
			}
		}
	}
	groups := map[int][]Rect{}
	for i, r := range rects {
		root := uf.find(i)
		groups[root] = append(groups[root], r)
	}
	out := make([]Region, 0, len(groups))
	roots := make([]int, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	for _, root := range roots {
		out = append(out, RegionFromRects(groups[root]))
	}
	return out
}

// randomSlottedRegion builds a region with many touching bands and holes:
// random rectangles minus random slots, so components, corner contacts and
// bands with several spans are common.
func randomSlottedRegion(r *rand.Rand) Region {
	var add, cut []Rect
	for i := 0; i < 1+r.Intn(10); i++ {
		x, y := int64(r.Intn(60)-10), int64(r.Intn(60)-10)
		add = append(add, Rect{x, y, x + int64(1+r.Intn(30)), y + int64(1+r.Intn(30))})
	}
	for i := 0; i < r.Intn(12); i++ {
		x, y := int64(r.Intn(60)-10), int64(r.Intn(60)-10)
		cut = append(cut, Rect{x, y, x + int64(1+r.Intn(4)), y + int64(1+r.Intn(40))})
	}
	return RegionFromRects(add).Subtract(RegionFromRects(cut))
}

func TestComponentsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	multi := 0
	for i := 0; i < 3000; i++ {
		g := randomSlottedRegion(r)
		want := componentsOracle(g)
		got := g.Components()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d, region %v:\n got %v\nwant %v", i, g, got, want)
		}
		if len(want) > 1 {
			multi++
		}
	}
	if multi < 500 {
		t.Fatalf("only %d of 3000 random regions had several components", multi)
	}
}
