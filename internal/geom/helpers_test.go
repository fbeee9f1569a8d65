package geom

import (
	"fmt"
	"math"
)

// Methods only the geometry tests call: oracles for the fast paths and
// fixture helpers. They compile into the test binary only.

// Rasterize is RasterizeRows over every row.
func (p Polygon) Rasterize(pitch int64) (Region, error) {
	return p.RasterizeRows(pitch, math.MinInt64, math.MaxInt64)
}

// Circle is CircleRows over every row.
func Circle(c Point, r, pitch int64) Region {
	return CircleRows(c, r, pitch, math.MinInt64, math.MaxInt64)
}

// Contains reports whether p lies inside the half-open extent.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// unitAt returns the unit square whose lower-left corner is p: on the
// integer grid a region covers the point p exactly when it overlaps
// unitAt(p).
func unitAt(p Point) Rect {
	return Rect{p.X, p.Y, p.X + 1, p.Y + 1}
}

// ContainsRect reports whether s is entirely inside r. An empty s is
// contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Translate shifts the rectangle by the vector p.
func (r Rect) Translate(p Point) Rect {
	if r.Empty() {
		return Rect{}
	}
	return Rect{r.X0 + p.X, r.Y0 + p.Y, r.X1 + p.X, r.Y1 + p.Y}
}

// ContainsRect reports whether r is entirely covered by the region.
func (g Region) ContainsRect(r Rect) bool {
	if r.Empty() {
		return true
	}
	return RegionFromRect(r).Subtract(g).Empty()
}

// Xor returns the symmetric difference of g and h.
func (g Region) Xor(h Region) Region {
	return g.combine(h, func(a, b bool) bool { return a != b })
}

// IntersectRect is a fast path for clipping the region to a rectangle.
func (g Region) IntersectRect(r Rect) Region {
	if r.Empty() || g.Empty() {
		return Region{}
	}
	var out []band
	for _, b := range g.bands {
		y0, y1 := maxInt64(b.Y0, r.Y0), minInt64(b.Y1, r.Y1)
		if y0 >= y1 {
			continue
		}
		var spans []span
		for _, s := range b.Spans {
			x0, x1 := maxInt64(s.X0, r.X0), minInt64(s.X1, r.X1)
			if x0 < x1 {
				spans = append(spans, span{x0, x1})
			}
		}
		if len(spans) > 0 {
			out = append(out, band{y0, y1, spans})
		}
	}
	return Region{bands: coalesceBands(out)}
}

// Translate shifts the whole region by the vector p.
func (g Region) Translate(p Point) Region {
	if g.Empty() {
		return g
	}
	out := make([]band, len(g.bands))
	for i, b := range g.bands {
		spans := make([]span, len(b.Spans))
		for j, s := range b.Spans {
			spans[j] = span{s.X0 + p.X, s.X1 + p.X}
		}
		out[i] = band{b.Y0 + p.Y, b.Y1 + p.Y, spans}
	}
	return Region{bands: out}
}

// VertexCount returns the total number of vertices over all boundary loops,
// the metric paper §II-H uses for clipping complexity.
func (g Region) VertexCount() int {
	n := 0
	for _, l := range g.Trace() {
		n += len(l.V)
	}
	return n
}

// mustRasterize rasterizes p at pitch and panics on error.
func mustRasterize(p Polygon, pitch int64) Region {
	r, err := p.Rasterize(pitch)
	if err != nil {
		panic(fmt.Sprintf("geom: %v", err))
	}
	return r
}
