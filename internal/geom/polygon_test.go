package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolygonSignedArea(t *testing.T) {
	ccw := Poly(Pt(0, 0), Pt(4, 0), Pt(4, 3), Pt(0, 3))
	if got := ccw.SignedArea2(); got != 24 {
		t.Fatalf("ccw signed area2 = %d, want 24", got)
	}
	cw := Poly(Pt(0, 0), Pt(0, 3), Pt(4, 3), Pt(4, 0))
	if got := cw.SignedArea2(); got != -24 {
		t.Fatalf("cw signed area2 = %d, want -24", got)
	}
	if got := ccw.Area(); got != 12 {
		t.Fatalf("area = %g, want 12", got)
	}
}

func TestPolygonBounds(t *testing.T) {
	p := Poly(Pt(2, -1), Pt(10, 4), Pt(-3, 7))
	if got, want := p.Bounds(), (Rect{-3, -1, 10, 7}); got != want {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
}

func TestPolygonContains(t *testing.T) {
	tri := Poly(Pt(0, 0), Pt(10, 0), Pt(0, 10))
	if !tri.Contains(Pt(2, 2)) {
		t.Fatal("interior point")
	}
	if tri.Contains(Pt(8, 8)) {
		t.Fatal("exterior point")
	}
	if tri.Contains(Pt(-1, 5)) {
		t.Fatal("left of polygon")
	}
}

func TestPolygonIsRectilinear(t *testing.T) {
	if !PolyFromRect(Rect{0, 0, 5, 5}).IsRectilinear() {
		t.Fatal("rect polygon is rectilinear")
	}
	if Poly(Pt(0, 0), Pt(10, 0), Pt(0, 10)).IsRectilinear() {
		t.Fatal("triangle is not rectilinear")
	}
}

func TestRasterizeRectExact(t *testing.T) {
	p := PolyFromRect(Rect{3, 4, 17, 9})
	g, err := p.Rasterize(1)
	if err != nil {
		t.Fatal(err)
	}
	regionEq(t, g, RegionFromRect(Rect{3, 4, 17, 9}), "rect rasterizes exactly")
}

func TestRasterizeLShapeExact(t *testing.T) {
	// Counterclockwise L.
	p := Poly(Pt(0, 0), Pt(10, 0), Pt(10, 4), Pt(4, 4), Pt(4, 10), Pt(0, 10))
	g, err := p.Rasterize(5)
	if err != nil {
		t.Fatal(err)
	}
	want := RegionFromRects([]Rect{{0, 0, 10, 4}, {0, 4, 4, 10}})
	regionEq(t, g, want, "rectilinear L rasterizes exactly regardless of pitch")
	if got := g.Area(); got != 64 {
		t.Fatalf("area = %d, want 64", got)
	}
}

func TestRasterizeTriangleApprox(t *testing.T) {
	p := Poly(Pt(0, 0), Pt(100, 0), Pt(0, 100))
	g, err := p.Rasterize(2)
	if err != nil {
		t.Fatal(err)
	}
	// Stair-stepped area must be within a couple of band-areas of 5000.
	got := float64(g.Area())
	if math.Abs(got-5000) > 150 {
		t.Fatalf("triangle raster area = %g, want ~5000", got)
	}
}

func TestRasterizeErrors(t *testing.T) {
	if _, err := Poly(Pt(0, 0), Pt(1, 1)).Rasterize(1); err == nil {
		t.Fatal("2-vertex polygon must error")
	}
	if _, err := PolyFromRect(Rect{0, 0, 5, 5}).Rasterize(0); err == nil {
		t.Fatal("pitch 0 must error")
	}
	// Degenerate zero-area polygon is fine and empty.
	g, err := Poly(Pt(0, 0), Pt(5, 0), Pt(5, 0), Pt(0, 0)).Rasterize(1)
	if err != nil || !g.Empty() {
		t.Fatalf("degenerate polygon: g=%v err=%v", g, err)
	}
}

func TestCircle(t *testing.T) {
	g := Circle(Pt(0, 0), 50, 1)
	area := float64(g.Area())
	ideal := math.Pi * 50 * 50
	if math.Abs(area-ideal)/ideal > 0.03 {
		t.Fatalf("circle area %g deviates >3%% from %g", area, ideal)
	}
	if !g.OverlapsRect(unitAt(Pt(0, 0))) {
		t.Fatal("circle contains center")
	}
	if g.OverlapsRect(unitAt(Pt(49, 49))) {
		t.Fatal("circle excludes corner")
	}
	if !Circle(Pt(0, 0), 0, 1).Empty() {
		t.Fatal("zero-radius circle empty")
	}
}

func TestQuickRasterizeRectilinearMatchesRegion(t *testing.T) {
	// For unions of rects, tracing to polygons and re-rasterizing must give
	// back the identical region (round-trip through the polygon domain).
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		g := randomRegion(rng)
		var back Region
		for _, pw := range g.Polygons() {
			outer, err := pw.Outer.Rasterize(1)
			if err != nil {
				return false
			}
			for _, h := range pw.Holes {
				hr, err := h.Rasterize(1)
				if err != nil {
					return false
				}
				outer = outer.Subtract(hr)
			}
			back = back.Union(outer)
		}
		return back.Equal(g)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestRowsRasterMatchesBand checks that RasterizeRows and CircleRows
// return the full rasterization intersected with their band, for random
// star-shaped and rectilinear polygons and discs, pitches 1 to 5, and
// bands that cut, cover or miss the shape.
func TestRowsRasterMatchesBand(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	band := func(y0, y1 int64) Region { return RegionFromRect(Rect{-1000, y0, 1000, y1}) }
	randBand := func() (int64, int64) {
		y0 := int64(rng.Intn(140) - 70)
		return y0, y0 + int64(rng.Intn(80))
	}
	for trial := 0; trial < 300; trial++ {
		pitch := int64(1 + rng.Intn(5))
		y0, y1 := randBand()

		c, r := Pt(int64(rng.Intn(41)-20), int64(rng.Intn(41)-20)), int64(rng.Intn(40))
		if got, want := CircleRows(c, r, pitch, y0, y1), Circle(c, r, pitch).Intersect(band(y0, y1)); !got.Equal(want) {
			t.Fatalf("circle %v r=%d pitch %d band [%d,%d): got %v, want %v", c, r, pitch, y0, y1, got, want)
		}

		n := 3 + rng.Intn(8)
		angles := make([]float64, n)
		for i := range angles {
			angles[i] = 2 * math.Pi * (float64(i) + rng.Float64()) / float64(n)
		}
		var p Polygon
		for _, a := range angles {
			rad := float64(5 + rng.Intn(40))
			p.V = append(p.V, Pt(int64(rad*math.Cos(a)), int64(rad*math.Sin(a))))
		}
		polys := []Polygon{p}
		for _, pw := range randomRegion(rng).Polygons() {
			polys = append(polys, pw.Outer)
		}
		for _, p := range polys {
			full, err := p.Rasterize(pitch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.RasterizeRows(pitch, y0, y1)
			if err != nil {
				t.Fatal(err)
			}
			if want := full.Intersect(band(y0, y1)); !got.Equal(want) {
				t.Fatalf("polygon %v pitch %d band [%d,%d): got %v, want %v", p.V, pitch, y0, y1, got, want)
			}
		}
	}
}
