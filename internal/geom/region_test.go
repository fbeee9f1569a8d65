package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func regionEq(t *testing.T, got, want Region, msg string) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s:\n got %v\nwant %v", msg, got, want)
	}
}

func TestRegionFromRectsMergesTouching(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 5, 5}, {5, 0, 10, 5}})
	regionEq(t, g, RegionFromRect(Rect{0, 0, 10, 5}), "horizontally touching rects merge")

	g = RegionFromRects([]Rect{{0, 0, 5, 5}, {0, 5, 5, 10}})
	regionEq(t, g, RegionFromRect(Rect{0, 0, 5, 10}), "vertically touching rects merge")
}

func TestRegionFromRectsOverlap(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 6, 6}, {3, 3, 9, 9}})
	if got := g.Area(); got != 36+36-9 {
		t.Fatalf("area = %d, want 63", got)
	}
}

func TestRegionAreaAdditivity(t *testing.T) {
	a := RegionFromRects([]Rect{{0, 0, 10, 10}})
	b := RegionFromRects([]Rect{{5, 5, 15, 15}, {20, 0, 25, 5}})
	union := a.Union(b)
	inter := a.Intersect(b)
	if union.Area()+inter.Area() != a.Area()+b.Area() {
		t.Fatalf("inclusion-exclusion violated: |A∪B|=%d |A∩B|=%d |A|=%d |B|=%d",
			union.Area(), inter.Area(), a.Area(), b.Area())
	}
}

func TestRegionSubtract(t *testing.T) {
	a := RegionFromRect(Rect{0, 0, 10, 10})
	b := RegionFromRect(Rect{4, 4, 6, 6})
	d := a.Subtract(b)
	if got := d.Area(); got != 96 {
		t.Fatalf("area after punch = %d, want 96", got)
	}
	if d.OverlapsRect(unitAt(Pt(5, 5))) {
		t.Fatal("hole interior must be removed")
	}
	if !d.OverlapsRect(unitAt(Pt(0, 0))) || !d.OverlapsRect(unitAt(Pt(9, 9))) {
		t.Fatal("outside hole must remain")
	}
	// Subtracting everything yields empty.
	if !a.Subtract(a).Empty() {
		t.Fatal("A - A must be empty")
	}
}

func TestRegionXor(t *testing.T) {
	a := RegionFromRect(Rect{0, 0, 10, 10})
	b := RegionFromRect(Rect{5, 0, 15, 10})
	x := a.Xor(b)
	if got := x.Area(); got != 100 {
		t.Fatalf("xor area = %d, want 100", got)
	}
	if x.OverlapsRect(unitAt(Pt(7, 5))) {
		t.Fatal("xor must exclude the overlap")
	}
	if !a.Xor(a).Empty() {
		t.Fatal("A xor A must be empty")
	}
}

func TestRegionContains(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 4, 4}, {10, 10, 14, 14}})
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true}, {Pt(3, 3), true}, {Pt(4, 4), false},
		{Pt(10, 10), true}, {Pt(13, 13), true}, {Pt(14, 13), false},
		{Pt(7, 7), false}, {Pt(-1, 0), false},
	}
	for _, c := range cases {
		if got := g.OverlapsRect(unitAt(c.p)); got != c.want {
			t.Errorf("unit square at %v covered = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRegionContainsRect(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 10, 5}, {0, 5, 5, 10}})
	if !g.ContainsRect(Rect{1, 1, 4, 9}) {
		t.Fatal("L-shape must contain its left column")
	}
	if g.ContainsRect(Rect{6, 6, 8, 8}) {
		t.Fatal("notch must not be contained")
	}
}

func TestRegionBounds(t *testing.T) {
	g := RegionFromRects([]Rect{{3, 1, 5, 2}, {-2, 4, 1, 9}})
	if got, want := g.Bounds(), (Rect{-2, 1, 5, 9}); got != want {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	if !EmptyRegion().Bounds().Empty() {
		t.Fatal("empty region bounds must be empty")
	}
}

func TestRegionIntersectRectFastPath(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 10, 10}, {20, 0, 30, 10}})
	clip := Rect{5, 2, 25, 8}
	fast := g.IntersectRect(clip)
	slow := g.Intersect(RegionFromRect(clip))
	regionEq(t, fast, slow, "IntersectRect must match Intersect")
}

func TestRegionBloatErode(t *testing.T) {
	g := RegionFromRect(Rect{10, 10, 20, 20})
	b := g.Bloat(3)
	regionEq(t, b, RegionFromRect(Rect{7, 7, 23, 23}), "bloat of rect is expanded rect")

	e := b.Erode(3)
	regionEq(t, e, g, "erode undoes bloat for convex region")

	// Bloat joins nearby pieces.
	two := RegionFromRects([]Rect{{0, 0, 4, 4}, {6, 0, 10, 4}})
	if n := len(two.Bloat(1).Components()); n != 1 {
		t.Fatalf("bloat(1) should join pieces 2 apart, got %d components", n)
	}
	// Erode removes thin necks.
	dumbbell := RegionFromRects([]Rect{{0, 0, 10, 10}, {10, 4, 20, 6}, {20, 0, 30, 10}})
	if n := len(dumbbell.Erode(2).Components()); n != 2 {
		t.Fatalf("erode(2) should cut the 2-wide neck, got %d components", n)
	}
}

func TestRegionComponents(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 5, 5}, {5, 5, 10, 10}, {20, 20, 25, 25}})
	comps := g.Components()
	// Corner-touching squares are electrically disjoint: 3 components.
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 (corner touch does not connect)", len(comps))
	}
	var total int64
	for _, c := range comps {
		total += c.Area()
	}
	if total != g.Area() {
		t.Fatalf("component areas %d != region area %d", total, g.Area())
	}

	l := RegionFromRects([]Rect{{0, 0, 10, 2}, {0, 2, 2, 10}})
	if n := len(l.Components()); n != 1 {
		t.Fatalf("L-shape must be a single component, got %d", n)
	}
}

func TestRegionTranslate(t *testing.T) {
	g := RegionFromRects([]Rect{{0, 0, 3, 3}, {5, 5, 8, 8}})
	got := g.Translate(Pt(100, -50))
	want := RegionFromRects([]Rect{{100, -50, 103, -47}, {105, -45, 108, -42}})
	regionEq(t, got, want, "translate")
	if got.Area() != g.Area() {
		t.Fatal("translate must preserve area")
	}
}

func TestRegionEqualCanonical(t *testing.T) {
	// Same point set constructed two different ways must compare equal.
	a := RegionFromRects([]Rect{{0, 0, 10, 10}})
	b := RegionFromRects([]Rect{{0, 0, 10, 5}, {0, 5, 10, 10}})
	regionEq(t, a, b, "canonical form must merge band split")

	c := RegionFromRects([]Rect{{0, 0, 5, 10}, {5, 0, 10, 10}})
	regionEq(t, a, c, "canonical form must merge span split")
}

// randomRegion builds a region from up to 8 random small rects.
func randomRegion(r *rand.Rand) Region {
	n := 1 + r.Intn(8)
	rects := make([]Rect, n)
	for i := range rects {
		x, y := int64(r.Intn(40)), int64(r.Intn(40))
		w, h := int64(1+r.Intn(15)), int64(1+r.Intn(15))
		rects[i] = Rect{x, y, x + w, y + h}
	}
	return RegionFromRects(rects)
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(42)),
		Values:   nil,
	}
}

func TestQuickUnionCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomRegion(rng), randomRegion(rng)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomRegion(rng), randomRegion(rng)
		return a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// A \ (B ∪ C) == (A \ B) ∩ (A \ C)
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b, c := randomRegion(rng), randomRegion(rng), randomRegion(rng)
		lhs := a.Subtract(b.Union(c))
		rhs := a.Subtract(b).Intersect(a.Subtract(c))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInclusionExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		a, b := randomRegion(rng), randomRegion(rng)
		return a.Union(b).Area()+a.Intersect(b).Area() == a.Area()+b.Area()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractDisjoint(t *testing.T) {
	// (A \ B) ∩ B == ∅ and (A \ B) ∪ (A ∩ B) == A
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		a, b := randomRegion(rng), randomRegion(rng)
		diff := a.Subtract(b)
		if !diff.Intersect(b).Empty() {
			return false
		}
		return diff.Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXorIdentity(t *testing.T) {
	// A xor B == (A ∪ B) \ (A ∩ B)
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		a, b := randomRegion(rng), randomRegion(rng)
		return a.Xor(b).Equal(a.Union(b).Subtract(a.Intersect(b)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBloatMonotone(t *testing.T) {
	// g ⊆ Bloat(g, d); Area(Bloat) >= Area; Erode(Bloat(g)) ⊇ g.
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		g := randomRegion(rng)
		d := int64(1 + rng.Intn(4))
		b := g.Bloat(d)
		if !g.Subtract(b).Empty() {
			return false
		}
		if b.Area() < g.Area() {
			return false
		}
		// Opening (erode of bloat) must contain the original region.
		return g.Subtract(b.Erode(d)).Empty()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComponentsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		g := randomRegion(rng)
		comps := g.Components()
		var u Region
		var total int64
		for _, c := range comps {
			if c.Empty() {
				return false
			}
			if u.Overlaps(c) {
				return false // components must be disjoint
			}
			u = u.Union(c)
			total += c.Area()
		}
		return u.Equal(g) && total == g.Area()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestRegionStringSmoke(t *testing.T) {
	if EmptyRegion().String() != "{}" {
		t.Fatal("empty region string")
	}
	g := RegionFromRect(Rect{-1, 0, 2, 3})
	if g.String() == "" {
		t.Fatal("non-empty region must render")
	}
}
