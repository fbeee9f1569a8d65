package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple (non-self-intersecting) polygon given by its vertex
// ring. The ring is implicitly closed: the last vertex connects back to the
// first. Vertex order may be clockwise or counterclockwise; SignedArea2
// reveals the orientation.
//
// Polygons are the input interchange format (component pads, blockages,
// board outlines). All set algebra happens on Region; Rasterize converts a
// polygon to a region, stair-stepping non-rectilinear edges at a chosen
// pitch exactly as a grid-snapped layout database would.
type Polygon struct {
	V []Point
}

// Poly builds a polygon from a vertex list.
func Poly(v ...Point) Polygon { return Polygon{V: v} }

// PolyFromRect returns the counterclockwise rectangle polygon.
func PolyFromRect(r Rect) Polygon {
	return Polygon{V: []Point{
		{r.X0, r.Y0}, {r.X1, r.Y0}, {r.X1, r.Y1}, {r.X0, r.Y1},
	}}
}

// SignedArea2 returns twice the signed area of the polygon (positive for
// counterclockwise rings). Using twice the area keeps the value exact in
// integer arithmetic.
func (p Polygon) SignedArea2() int64 {
	var sum int64
	n := len(p.V)
	for i := 0; i < n; i++ {
		a, b := p.V[i], p.V[(i+1)%n]
		sum += a.X*b.Y - b.X*a.Y
	}
	return sum
}

// Area returns the absolute polygon area.
func (p Polygon) Area() float64 {
	return math.Abs(float64(p.SignedArea2())) / 2
}

// Contains reports whether the point lies strictly inside the polygon
// (even-odd rule, boundary points may report either way for degenerate
// horizontal edges; use Region-based tests where exactness matters).
func (p Polygon) Contains(pt Point) bool {
	in := false
	n := len(p.V)
	for i := 0; i < n; i++ {
		a, b := p.V[i], p.V[(i+1)%n]
		if (a.Y > pt.Y) != (b.Y > pt.Y) {
			// x coordinate of edge crossing at pt.Y, compared without division:
			// xCross = a.X + (pt.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			num := (pt.Y - a.Y) * (b.X - a.X)
			den := b.Y - a.Y
			// pt.X < xCross  <=>  pt.X - a.X < num/den
			lhs := (pt.X - a.X) * den
			rhs := num
			if den < 0 {
				lhs, rhs = -lhs, -rhs
			}
			if lhs < rhs {
				in = !in
			}
		}
	}
	return in
}

// IsRectilinear reports whether every edge is axis-parallel.
func (p Polygon) IsRectilinear() bool {
	n := len(p.V)
	for i := 0; i < n; i++ {
		a, b := p.V[i], p.V[(i+1)%n]
		if a.X != b.X && a.Y != b.Y {
			return false
		}
	}
	return true
}

// Rasterize converts the polygon into a Region. Rectilinear polygons
// convert exactly (pitch is ignored for band placement: bands are cut at the
// polygon's own y coordinates). Polygons with slanted edges are
// stair-stepped: bands taller than pitch are subdivided and each slab is
// filled between the edge crossings evaluated at the slab's midline, which
// is the standard grid-snap discretization. pitch must be >= 1.
func (p Polygon) Rasterize(pitch int64) (Region, error) {
	if len(p.V) < 3 {
		return Region{}, fmt.Errorf("geom: polygon needs >= 3 vertices, got %d", len(p.V))
	}
	if pitch < 1 {
		return Region{}, fmt.Errorf("geom: rasterize pitch must be >= 1, got %d", pitch)
	}
	if p.SignedArea2() == 0 {
		return Region{}, nil
	}
	rectilinear := p.IsRectilinear()

	ys := make([]int64, 0, len(p.V))
	for _, v := range p.V {
		ys = append(ys, v.Y)
	}
	ys = uniqueSorted(ys)

	var rects []Rect
	for i := 0; i+1 < len(ys); i++ {
		y0, y1 := ys[i], ys[i+1]
		steps := int64(1)
		if !rectilinear {
			steps = (y1 - y0 + pitch - 1) / pitch
		}
		for s := int64(0); s < steps; s++ {
			sy0 := y0 + s*(y1-y0)/steps
			sy1 := y0 + (s+1)*(y1-y0)/steps
			if sy0 >= sy1 {
				continue
			}
			rects = appendSlabRects(rects, p, sy0, sy1)
		}
	}
	return RegionFromRects(rects), nil
}

// appendSlabRects fills the slab [y0,y1) using even-odd crossings of the
// polygon edges evaluated at the slab midline.
func appendSlabRects(rects []Rect, p Polygon, y0, y1 int64) []Rect {
	// Midline in doubled coordinates to stay in integers.
	ym2 := y0 + y1 // 2*ymid
	var xs []int64
	n := len(p.V)
	for i := 0; i < n; i++ {
		a, b := p.V[i], p.V[(i+1)%n]
		ay2, by2 := 2*a.Y, 2*b.Y
		if (ay2 > ym2) == (by2 > ym2) {
			continue // edge does not straddle the midline
		}
		// x at ymid: a.X + (ymid-a.Y)*(b.X-a.X)/(b.Y-a.Y); round to nearest.
		num := (ym2 - ay2) * (b.X - a.X)
		den := 2 * (by2 - ay2)
		xs = append(xs, a.X+roundDiv(num*2, den))
	}
	xs = uniqueXings(xs)
	for i := 0; i+1 < len(xs); i += 2 {
		if xs[i] < xs[i+1] {
			rects = append(rects, Rect{xs[i], y0, xs[i+1], y1})
		}
	}
	return rects
}

// uniqueXings sorts crossings preserving multiplicity parity; duplicates are
// kept in pairs (they cancel in even-odd fill), so plain sorting suffices.
func uniqueXings(xs []int64) []int64 {
	if len(xs)%2 != 0 {
		// Midline passed exactly through a vertex between two straddling
		// edges; drop the last unpaired crossing (measure-zero artifact).
		xs = xs[:len(xs)-1]
	}
	return uniqueSortKeep(xs)
}

func uniqueSortKeep(v []int64) []int64 {
	// insertion sort: crossing lists are tiny
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v
}

// roundDiv divides num by den rounding half away from zero.
func roundDiv(num, den int64) int64 {
	if den < 0 {
		num, den = -num, -den
	}
	if num >= 0 {
		return (num + den/2) / den
	}
	return -((-num + den/2) / den)
}

// Circle approximates a disc of radius r centered at c as a Region,
// stair-stepped in slabs of the given pitch (>=1). Each slab is filled to
// the chord width at the slab midline, matching how circular pads land on a
// manufacturing grid.
func Circle(c Point, r, pitch int64) Region {
	if r <= 0 {
		return Region{}
	}
	if pitch < 1 {
		pitch = 1
	}
	var rects []Rect
	for y := -r; y < r; y += pitch {
		y1 := y + pitch
		if y1 > r {
			y1 = r
		}
		// Midline offset from center (in halves).
		ym := float64(y+y1) / 2
		w := math.Sqrt(float64(r)*float64(r) - ym*ym)
		half := int64(math.Round(w))
		if half <= 0 {
			continue
		}
		rects = append(rects, Rect{c.X - half, c.Y + y, c.X + half, c.Y + y1})
	}
	return RegionFromRects(rects)
}
