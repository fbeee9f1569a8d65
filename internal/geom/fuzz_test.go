package geom

import (
	"testing"
)

// FuzzRegionOps drives the region algebra with fuzzer-chosen rectangles
// and checks the algebraic laws that must hold for arbitrary inputs. Run
// the seeds as normal tests, or explore with `go test -fuzz=FuzzRegionOps`.
func FuzzRegionOps(f *testing.F) {
	f.Add(int64(0), int64(0), int64(10), int64(10), int64(5), int64(5), int64(15), int64(15), int64(2))
	f.Add(int64(-5), int64(-5), int64(5), int64(5), int64(0), int64(0), int64(3), int64(8), int64(1))
	f.Add(int64(0), int64(0), int64(1), int64(1), int64(1), int64(1), int64(2), int64(2), int64(3))
	f.Add(int64(0), int64(0), int64(100), int64(2), int64(0), int64(1), int64(100), int64(3), int64(4))
	f.Fuzz(func(t *testing.T, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1, d int64) {
		// Clamp to keep arithmetic far from overflow.
		clamp := func(v int64) int64 {
			const lim = 1 << 20
			if v > lim {
				return lim
			}
			if v < -lim {
				return -lim
			}
			return v
		}
		a := RegionFromRect(R(clamp(ax0), clamp(ay0), clamp(ax1), clamp(ay1)))
		b := RegionFromRect(R(clamp(bx0), clamp(by0), clamp(bx1), clamp(by1)))
		if d < 0 {
			d = -d
		}
		d = d % 16

		union := a.Union(b)
		inter := a.Intersect(b)
		diff := a.Subtract(b)
		checkWindowed(t, "fuzz", a, b)

		if union.Area()+inter.Area() != a.Area()+b.Area() {
			t.Fatal("inclusion-exclusion violated")
		}
		if !diff.Intersect(b).Empty() {
			t.Fatal("difference overlaps subtrahend")
		}
		if !diff.Union(inter).Equal(a) {
			t.Fatal("partition of A violated")
		}
		if !a.Xor(b).Equal(union.Subtract(inter)) {
			t.Fatal("xor identity violated")
		}
		// Bloat must contain the original; erode of bloat must contain it
		// back (closing ⊇ identity).
		bl := a.Bloat(d)
		if !a.Subtract(bl).Empty() {
			t.Fatal("bloat lost area")
		}
		if !a.Subtract(bl.Erode(d)).Empty() {
			t.Fatal("closing lost area")
		}
		// Trace must reproduce the exact area for any region.
		var area2 int64
		for _, l := range union.Trace() {
			area2 += l.SignedArea2()
		}
		if area2 != 2*union.Area() {
			t.Fatal("trace area mismatch")
		}
	})
}

// FuzzPolygonClip exercises the polygon → region clipping chain with two
// fuzzer-chosen triangles: each is rasterized (the epsilon-free integer
// discretization of the paper's polygon handling) and then clipped
// against the other, checking the containment and partition laws that any
// correct clipper must satisfy exactly in integer arithmetic.
func FuzzPolygonClip(f *testing.F) {
	f.Add(int64(0), int64(0), int64(40), int64(0), int64(0), int64(40),
		int64(10), int64(10), int64(50), int64(10), int64(10), int64(50), int64(1))
	f.Add(int64(-20), int64(-20), int64(20), int64(-20), int64(0), int64(30),
		int64(-20), int64(20), int64(20), int64(20), int64(0), int64(-30), int64(2))
	f.Add(int64(0), int64(0), int64(100), int64(1), int64(1), int64(100),
		int64(0), int64(0), int64(100), int64(1), int64(1), int64(100), int64(1)) // identical slivers
	f.Add(int64(0), int64(0), int64(8), int64(0), int64(0), int64(8),
		int64(100), int64(100), int64(108), int64(100), int64(100), int64(108), int64(3)) // disjoint
	f.Fuzz(func(t *testing.T, ax0, ay0, ax1, ay1, ax2, ay2, bx0, by0, bx1, by1, bx2, by2, pitch int64) {
		clamp := func(v int64) int64 {
			const lim = 1 << 12
			if v > lim {
				return lim
			}
			if v < -lim {
				return -lim
			}
			return v
		}
		if pitch < 1 {
			pitch = 1
		}
		pitch = 1 + pitch%8
		pa := Poly(Pt(clamp(ax0), clamp(ay0)), Pt(clamp(ax1), clamp(ay1)), Pt(clamp(ax2), clamp(ay2)))
		pb := Poly(Pt(clamp(bx0), clamp(by0)), Pt(clamp(bx1), clamp(by1)), Pt(clamp(bx2), clamp(by2)))
		a, err := pa.Rasterize(pitch)
		if err != nil {
			t.Fatalf("rasterize A: %v", err)
		}
		b, err := pb.Rasterize(pitch)
		if err != nil {
			t.Fatalf("rasterize B: %v", err)
		}

		inter := a.Intersect(b)
		checkWindowed(t, "fuzz", a, b)
		// The clip is contained in both operands.
		if !inter.Subtract(a).Empty() || !inter.Subtract(b).Empty() {
			t.Fatal("clip escaped an operand")
		}
		// Clipping partitions A: (A−B) ⊎ (A∩B) = A, and the parts are disjoint.
		diff := a.Subtract(b)
		if !diff.Union(inter).Equal(a) {
			t.Fatal("clip partition of A violated")
		}
		if !diff.Intersect(inter).Empty() {
			t.Fatal("clip parts overlap")
		}
		if diff.Area()+inter.Area() != a.Area() {
			t.Fatal("clip areas do not sum to A")
		}
		// Rectangle clipping must agree with general clipping.
		if !b.Empty() {
			r := b.Bounds()
			if !a.IntersectRect(r).Equal(a.Intersect(RegionFromRect(r))) {
				t.Fatal("IntersectRect disagrees with Intersect")
			}
		}
		// Clipping against itself and against empty are identities.
		if !a.Intersect(a).Equal(a) {
			t.Fatal("self-clip not identity")
		}
		if !a.Intersect(EmptyRegion()).Empty() {
			t.Fatal("empty-clip not empty")
		}
	})
}

// FuzzRasterize exercises the polygon scanline fill with fuzzer-chosen
// triangles, checking that the result stays within the bounding box and
// roughly matches the analytic area.
func FuzzRasterize(f *testing.F) {
	f.Add(int64(0), int64(0), int64(50), int64(0), int64(0), int64(50))
	f.Add(int64(0), int64(0), int64(30), int64(40), int64(-20), int64(10))
	f.Add(int64(5), int64(5), int64(5), int64(5), int64(5), int64(5)) // degenerate
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, x2, y2 int64) {
		clamp := func(v int64) int64 {
			const lim = 1 << 12
			if v > lim {
				return lim
			}
			if v < -lim {
				return -lim
			}
			return v
		}
		p := Poly(Pt(clamp(x0), clamp(y0)), Pt(clamp(x1), clamp(y1)), Pt(clamp(x2), clamp(y2)))
		g, err := p.Rasterize(1)
		if err != nil {
			t.Fatalf("triangle rasterize error: %v", err)
		}
		if g.Empty() {
			return // degenerate triangle
		}
		if !p.Bounds().ContainsRect(g.Bounds()) {
			t.Fatalf("raster %v escaped polygon bounds %v", g.Bounds(), p.Bounds())
		}
		want := p.Area()
		got := float64(g.Area())
		// Stair-stepping error is bounded by the perimeter; allow a loose
		// envelope plus absolute slack for slivers.
		perim := float64(p.Bounds().W()+p.Bounds().H()) * 2
		if diff := got - want; diff > perim+8 || diff < -perim-8 {
			t.Fatalf("raster area %g vs analytic %g (perimeter %g)", got, want, perim)
		}
	})
}
