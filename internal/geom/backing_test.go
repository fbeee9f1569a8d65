package geom

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// spanBoolReference is the per-band sweep combine ran before it wrote
// into one backing slice: a fresh breakpoint list and a fresh output list
// for every band.
func spanBoolReference(a, b []span, keep func(bool, bool) bool) []span {
	var xs []int64
	for _, s := range a {
		xs = append(xs, s.X0, s.X1)
	}
	for _, s := range b {
		xs = append(xs, s.X0, s.X1)
	}
	xs = uniqueSorted(xs)
	var out []span
	ia, ib := 0, 0
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		for ia < len(a) && a[ia].X1 <= x0 {
			ia++
		}
		for ib < len(b) && b[ib].X1 <= x0 {
			ib++
		}
		inA := ia < len(a) && a[ia].X0 <= x0
		inB := ib < len(b) && b[ib].X0 <= x0
		if keep(inA, inB) {
			if n := len(out); n > 0 && out[n-1].X1 == x0 {
				out[n-1].X1 = x1
			} else {
				out = append(out, span{x0, x1})
			}
		}
	}
	return out
}

// combineReference is combine with its own span list per band.
func combineReference(g, h Region, keep func(bool, bool) bool) Region {
	if g.Empty() && h.Empty() {
		return Region{}
	}
	var ys []int64
	for _, b := range g.bands {
		ys = append(ys, b.Y0, b.Y1)
	}
	for _, b := range h.bands {
		ys = append(ys, b.Y0, b.Y1)
	}
	ys = uniqueSorted(ys)
	var out []band
	ig, ih := 0, 0
	for i := 0; i+1 < len(ys); i++ {
		y0, y1 := ys[i], ys[i+1]
		for ig < len(g.bands) && g.bands[ig].Y1 <= y0 {
			ig++
		}
		for ih < len(h.bands) && h.bands[ih].Y1 <= y0 {
			ih++
		}
		var sa, sb []span
		if ig < len(g.bands) && g.bands[ig].Y0 <= y0 {
			sa = g.bands[ig].Spans
		}
		if ih < len(h.bands) && h.bands[ih].Y0 <= y0 {
			sb = h.bands[ih].Spans
		}
		if spans := spanBoolReference(sa, sb, keep); len(spans) > 0 {
			out = append(out, band{y0, y1, spans})
		}
	}
	return Region{bands: coalesceBands(out)}
}

// oneBacking reports whether the bands' span windows lie in ascending
// order in one backing array, none overlapping the next, and each capped
// at its end. A band left pointing into an array that appending has since
// replaced shows as a window out of order.
func oneBacking(g Region) bool {
	if g.Empty() {
		return true
	}
	size := unsafe.Sizeof(span{})
	base := uintptr(unsafe.Pointer(&g.bands[0].Spans[0]))
	end := base
	for _, b := range g.bands {
		at := uintptr(unsafe.Pointer(&b.Spans[0]))
		if at < end || at-base > 1<<20*size || cap(b.Spans) != len(b.Spans) {
			return false
		}
		end = at + uintptr(len(b.Spans))*size
	}
	return true
}

// TestCombineMatchesPerBandReference checks that writing every band's
// spans into one backing slice builds the same regions as a fresh span
// list per band, for all four boolean ops on random band sets, and that
// no band of the result reaches past its own spans.
func TestCombineMatchesPerBandReference(t *testing.T) {
	ops := []struct {
		name string
		keep func(bool, bool) bool
	}{
		{"union", func(a, b bool) bool { return a || b }},
		{"intersect", func(a, b bool) bool { return a && b }},
		{"subtract", func(a, b bool) bool { return a && !b }},
		{"xor", func(a, b bool) bool { return a != b }},
	}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		g, h := randomSlottedRegion(r), randomSlottedRegion(r)
		if i%10 == 0 {
			h = Region{}
		}
		for _, op := range ops {
			got, want := g.combine(h, op.keep), combineReference(g, h, op.keep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %s of %v and %v:\n got %v\nwant %v", i, op.name, g, h, got, want)
			}
			if !oneBacking(got) {
				t.Fatalf("case %d %s: the bands of %v do not lie in order in one capped backing slice", i, op.name, got)
			}
		}
	}
}

// TestComponentsDoNotAlias splits many regions and checks that each
// component keeps its String while its neighbours are combined, bloated
// and split, and while a span is appended to each of its bands: every
// band and span window a split hands out is capped, so nothing written
// through one region reaches another.
func TestComponentsDoNotAlias(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		g := randomSlottedRegion(r)
		if g.Empty() {
			continue
		}
		// Clip g to a grid of boxes and split every box.
		var regions []Region
		b := g.Bounds()
		for x := b.X0; x < b.X1; x += 7 {
			for y := b.Y0; y < b.Y1; y += 5 {
				var clip []Rect
				for _, rc := range g.Rects() {
					if c := rc.Intersect(Rect{x, y, x + 7, y + 5}); !c.Empty() {
						clip = append(clip, c)
					}
				}
				cell := RegionFromRects(clip)
				regions = append(regions, cell)
				comps := cell.Components()
				if want := componentsOracle(cell); !reflect.DeepEqual(comps, want) {
					t.Fatalf("case %d: components %v, want %v", i, comps, want)
				}
				for _, c := range comps {
					if !oneBacking(c) {
						t.Fatalf("case %d: the bands of component %v do not lie in order in one capped backing slice", i, c)
					}
				}
				regions = append(regions, comps...)
			}
		}
		want := make([]string, len(regions))
		for k, reg := range regions {
			want[k] = reg.String()
		}
		check := func(what string) {
			t.Helper()
			for k, reg := range regions {
				if got := reg.String(); got != want[k] {
					t.Fatalf("case %d: region %d changed after %s:\n got %s\nwant %s", i, k, what, got, want[k])
				}
			}
		}
		for k := 0; k+1 < len(regions); k++ {
			p, q := regions[k], regions[k+1]
			_ = p.Union(q)
			_ = p.Intersect(q)
			_ = p.Subtract(q)
			_ = p.Bloat(1)
			_ = p.Union(q).Components()
		}
		check("booleans of neighbours")
		for _, reg := range regions {
			for _, bd := range reg.bands {
				_ = append(bd.Spans, span{1 << 40, 1<<40 + 1})
			}
			_ = append(reg.bands, band{1 << 40, 1<<40 + 1, nil})
		}
		check("appends to neighbours")
	}
}
