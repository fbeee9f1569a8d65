package geom

import (
	"math/rand"
	"testing"
)

var (
	keepAnd    = func(a, b bool) bool { return a && b }
	keepAndNot = func(a, b bool) bool { return a && !b }
)

// checkWindowed fails when Intersect or Subtract, which combine only the
// bands that meet the other operand's y extent, differ from combine over
// every band, in either operand order.
func checkWindowed(t *testing.T, name string, g, h Region) {
	t.Helper()
	for _, p := range [2][2]Region{{g, h}, {h, g}} {
		a, b := p[0], p[1]
		if got, want := a.Intersect(b), a.combine(b, keepAnd); !got.Equal(want) {
			t.Fatalf("%s: %v ∩ %v:\n got %v\nwant %v", name, a, b, got, want)
		}
		if got, want := a.Subtract(b), a.combine(b, keepAndNot); !got.Equal(want) {
			t.Fatalf("%s: %v − %v:\n got %v\nwant %v", name, a, b, got, want)
		}
	}
}

// TestWindowedBooleansMatchCombine checks the windowed Intersect and
// Subtract against combine over all bands on random slotted regions: as
// drawn, shifted in y through every offset from disjoint below to
// disjoint above (so band edges touch and windows start and end on every
// band), split by a y gap that holds the other operand, and nested.
func TestWindowedBooleansMatchCombine(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for i := 0; i < 300; i++ {
		g, h := randomSlottedRegion(r), randomSlottedRegion(r)
		checkWindowed(t, "random", g, h)
		if g.Empty() || h.Empty() {
			continue
		}
		gb, hb := g.Bounds(), h.Bounds()
		for dy := gb.Y0 - hb.Y1 - 1; dy <= gb.Y1-hb.Y0+1; dy++ {
			checkWindowed(t, "shifted", g, h.Translate(Pt(0, dy)))
		}
		// g between two copies of h, inside the bounds of their union
		// but in no band of it.
		gap := h.Translate(Pt(0, gb.Y0-hb.Y1)).Union(h.Translate(Pt(0, gb.Y1-hb.Y0)))
		checkWindowed(t, "gap", g, gap)
		checkWindowed(t, "nested", g, g.Erode(1+int64(r.Intn(3))))
		checkWindowed(t, "nested", g, g.Bloat(1+int64(r.Intn(3))))
		checkWindowed(t, "same", g, g)
	}
}
