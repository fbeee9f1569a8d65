// Package geom provides the 2-D geometry substrate for SPROUT: integer
// points and rectangles on a manufacturing grid, a canonical rectilinear
// Region type with boolean set algebra (union, intersection, difference,
// symmetric difference), morphological operations (bloat and erode by a
// square structuring element), polygon rasterization for arbitrary input
// shapes, and boundary tracing that converts a Region back into rectilinear
// polygons with holes.
//
// The paper relies on a commercial layout database and general polygon
// clipping (Vatti / Greiner-Hormann). Industrial layout flows are
// grid-snapped, so an exact rectangle-band region algebra on an integer grid
// reproduces the same available-space computation (paper Eq. 1) with full
// robustness: every operation here is exact integer arithmetic with no
// epsilon tuning. Non-rectilinear shapes (circular pads, arbitrary
// blockages) are conservatively stair-stepped at a caller-chosen pitch,
// which is exactly how they are discretized by SPROUT's own tiling stage
// (paper Algorithm 1) anyway.
//
// Coordinates are int64 grid units. One unit is 0.1 mm in the case studies,
// but the package is unit-agnostic. Rectangles use half-open semantics:
// [X0,X1) x [Y0,Y1), so adjacency, area and tiling compose without
// double-counting.
package geom

import "fmt"

// Point is a location on the integer manufacturing grid.
type Point struct {
	X, Y int64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
