package geom

import (
	"fmt"
	"math"
	"sort"
)

// Polygon is a simple (non-self-intersecting) polygon given by its vertex
// ring. The ring is implicitly closed: the last vertex connects back to the
// first. Vertex order may be clockwise or counterclockwise; SignedArea2
// reveals the orientation.
//
// Polygons are the input interchange format (component pads, blockages,
// board outlines). All set algebra happens on Region; RasterizeRows
// converts a polygon to a region, stair-stepping non-rectilinear edges at
// a chosen pitch exactly as a grid-snapped layout database would.
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

// Bounds returns the bounding box of the polygon vertices.
func (p Polygon) Bounds() Rect {
	if len(p.V) == 0 {
		return Rect{}
	}
	out := Rect{p.V[0].X, p.V[0].Y, p.V[0].X, p.V[0].Y}
	for _, v := range p.V[1:] {
		out.X0 = minInt64(out.X0, v.X)
		out.Y0 = minInt64(out.Y0, v.Y)
		out.X1 = maxInt64(out.X1, v.X)
		out.Y1 = maxInt64(out.Y1, v.Y)
	}
	return out
}

// RasterizeRows converts the part of the polygon in the band
// y0 <= y < y1 into a Region. Rectilinear polygons convert exactly (pitch
// is ignored for band placement: bands are cut at the polygon's own y
// coordinates). Polygons with slanted edges are stair-stepped: bands
// taller than pitch are subdivided and each slab is filled between the
// edge crossings evaluated at the slab's midline, which is the standard
// grid-snap discretization. The result is the whole polygon's
// rasterization intersected with the band, built without visiting the
// slabs outside it, so its cost follows the band's height rather than the
// polygon's. pitch must be >= 1.
func (p Polygon) RasterizeRows(pitch, y0, y1 int64) (Region, error) {
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
		lo, hi := ys[i], ys[i+1]
		if hi <= y0 || lo >= y1 {
			continue
		}
		steps := int64(1)
		if !rectilinear {
			steps = (hi - lo + pitch - 1) / pitch
		}
		// Slab s spans [at(s), at(s+1)); visit those that meet the band.
		at := func(s int64) int64 { return lo + s*(hi-lo)/steps }
		first := int64(sort.Search(int(steps), func(s int) bool { return at(int64(s)+1) > y0 }))
		last := int64(sort.Search(int(steps), func(s int) bool { return at(int64(s)) >= y1 }))
		for s := first; s < last; s++ {
			sy0, sy1 := at(s), at(s+1)
			if sy0 >= sy1 {
				continue
			}
			n := len(rects)
			rects = appendSlabRects(rects, p, sy0, sy1)
			for k := n; k < len(rects); k++ {
				rects[k].Y0, rects[k].Y1 = max(rects[k].Y0, y0), min(rects[k].Y1, y1)
			}
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

// CircleRows approximates the part of a disc of radius r centered at c
// in the band y0 <= y < y1 as a Region, stair-stepped in slabs of the
// given pitch (>=1). Each slab is filled to the chord width at the slab
// midline, matching how circular pads land on a manufacturing grid. The
// result is the whole disc's slabs intersected with the band, built
// without visiting the slabs outside it.
func CircleRows(c Point, r, pitch, y0, y1 int64) Region {
	if r <= 0 {
		return Region{}
	}
	if pitch < 1 {
		pitch = 1
	}
	// Slab k spans the offsets [-r+k*pitch, -r+(k+1)*pitch) from the
	// centre; start at the first slab that ends above y0.
	from := -r
	if y0 > c.Y-r {
		from += (y0 - (c.Y - r)) / pitch * pitch
	}
	var rects []Rect
	for y := from; y < r && c.Y+y < y1; y += pitch {
		top := min(y+pitch, r)
		// Midline offset from center (in halves).
		ym := float64(y+top) / 2
		w := math.Sqrt(float64(r)*float64(r) - ym*ym)
		half := int64(math.Round(w))
		if half <= 0 {
			continue
		}
		rects = append(rects, Rect{c.X - half, max(c.Y+y, y0), c.X + half, min(c.Y+top, y1)})
	}
	return RegionFromRects(rects)
}
