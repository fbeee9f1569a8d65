package geom

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// regionFromRectsBrute is RegionFromRects by brute force: the plane is cut
// at every rectangle edge into a grid of cells, a cell is kept when some
// rectangle covers it, the kept cells of each grid row are merged into
// spans, and rows with equal spans that touch are coalesced.
func regionFromRectsBrute(rects []Rect) Region {
	var xs, ys []int64
	for _, r := range rects {
		if !r.Empty() {
			xs = append(xs, r.X0, r.X1)
			ys = append(ys, r.Y0, r.Y1)
		}
	}
	xs, ys = uniqueSorted(xs), uniqueSorted(ys)
	var bands []band
	for i := 0; i+1 < len(ys); i++ {
		var sp []span
		for j := 0; j+1 < len(xs); j++ {
			cell := Rect{xs[j], ys[i], xs[j+1], ys[i+1]}
			covered := false
			for _, r := range rects {
				if r.Intersect(cell) == cell {
					covered = true
					break
				}
			}
			if !covered {
				continue
			}
			if n := len(sp); n > 0 && sp[n-1].X1 == cell.X0 {
				sp[n-1].X1 = cell.X1
			} else {
				sp = append(sp, span{cell.X0, cell.X1})
			}
		}
		if len(sp) == 0 {
			continue
		}
		if n := len(bands); n > 0 && bands[n-1].Y1 == ys[i] && spansEqual(bands[n-1].Spans, sp) {
			bands[n-1].Y1 = ys[i+1]
			continue
		}
		bands = append(bands, band{ys[i], ys[i+1], sp})
	}
	return Region{bands: bands}
}

// randomRects draws up to 30 rectangles that overlap, touch, nest, repeat
// and include empty ones, mixed with runs of one-unit rows like a
// rasterized disc.
func randomRects(r *rand.Rand) []Rect {
	var rects []Rect
	for k := r.Intn(31); k > 0; k-- {
		x, y := int64(r.Intn(60)-20), int64(r.Intn(60)-20)
		rects = append(rects, Rect{x, y, x + int64(r.Intn(26)-2), y + int64(r.Intn(26)-2)})
		switch r.Intn(8) {
		case 0:
			rects = append(rects, rects[len(rects)-1])
		case 1:
			for row := int64(0); row < int64(r.Intn(12)); row++ {
				half := int64(r.Intn(6))
				rects = append(rects, Rect{x - half, y + row, x + half, y + row + 1})
			}
		}
	}
	r.Shuffle(len(rects), func(a, b int) { rects[a], rects[b] = rects[b], rects[a] })
	return rects
}

// TestRegionFromRectsMatchesBruteForce checks the sweep of RegionFromRects
// against the brute-force cell grid on random rectangle sets, and that it
// leaves its input as it was.
func TestRegionFromRectsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 3000; i++ {
		rects := randomRects(r)
		in := slices.Clone(rects)
		got, want := RegionFromRects(rects), regionFromRectsBrute(rects)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d, rects %v:\n got %v\nwant %v", i, rects, got, want)
		}
		if !slices.Equal(rects, in) {
			t.Fatalf("case %d: RegionFromRects reordered its input", i)
		}
	}
}

// TestRegionFromRectsLinearInRows builds a disc of radius 40,000 from its
// 80,000 one-unit rows. A build that rescans every rectangle below each
// slab takes seconds at this size; the sweep takes milliseconds.
func TestRegionFromRectsLinearInRows(t *testing.T) {
	const radius = 40000
	start := time.Now()
	g := CircleRows(Pt(0, 0), radius, 1, math.MinInt64, math.MaxInt64)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a disc of radius %d took %v to build", radius, d)
	}
	if b := g.Bounds(); b != (Rect{-radius, -radius, radius, radius}) {
		t.Fatalf("disc bounds %v", b)
	}
	if a, want := float64(g.Area()), math.Pi*radius*radius; math.Abs(a-want) > 1e-4*want {
		t.Fatalf("disc area %g, want about %g", a, want)
	}
}

// TestOverlapsRectMatchesOverlaps checks OverlapsRect against Overlaps
// with the rectangle's region on random slotted regions and rectangles,
// empty ones included.
func TestOverlapsRectMatchesOverlaps(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	hits := 0
	for i := 0; i < 3000; i++ {
		g := randomSlottedRegion(r)
		for k := 0; k < 10; k++ {
			x, y := int64(r.Intn(80)-20), int64(r.Intn(80)-20)
			rc := Rect{x, y, x + int64(r.Intn(12)-1), y + int64(r.Intn(12)-1)}
			got, want := g.OverlapsRect(rc), g.Overlaps(RegionFromRect(rc))
			if got != want {
				t.Fatalf("case %d: %v.OverlapsRect(%v) = %v, want %v", i, g, rc, got, want)
			}
			if want {
				hits++
			}
		}
	}
	if hits < 3000 {
		t.Fatalf("only %d of 30000 rectangles overlapped their region", hits)
	}
}
