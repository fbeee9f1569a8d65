package geom

import "fmt"

// Rect is an axis-aligned rectangle with half-open extent
// [X0,X1) x [Y0,Y1). A Rect with X1 <= X0 or Y1 <= Y0 is empty.
type Rect struct {
	X0, Y0, X1, Y1 int64
}

// R constructs a Rect from two corner coordinates, normalizing the order so
// that X0 <= X1 and Y0 <= Y1.
func R(x0, y0, x1, y1 int64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// RectAround returns the square of half-width r centered on p.
func RectAround(p Point, r int64) Rect {
	return Rect{p.X - r, p.Y - r, p.X + r, p.Y + r}
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// W returns the width of the rectangle (0 if empty).
func (r Rect) W() int64 {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the height of the rectangle (0 if empty).
func (r Rect) H() int64 {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns the area of the rectangle in grid units squared.
func (r Rect) Area() int64 {
	if r.Empty() {
		return 0
	}
	return (r.X1 - r.X0) * (r.Y1 - r.Y0)
}

// Center returns the midpoint of the rectangle (rounded toward -inf).
func (r Rect) Center() Point {
	return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2}
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		maxInt64(r.X0, s.X0), maxInt64(r.Y0, s.Y0),
		minInt64(r.X1, s.X1), minInt64(r.Y1, s.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool {
	return !r.Empty() && !s.Empty() &&
		r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Union returns the bounding box of r and s. Empty inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		minInt64(r.X0, s.X0), minInt64(r.Y0, s.Y0),
		maxInt64(r.X1, s.X1), maxInt64(r.Y1, s.Y1),
	}
}

// Expand grows the rectangle by d on every side (shrinks for negative d).
// The result may be empty.
func (r Rect) Expand(d int64) Rect {
	if r.Empty() {
		return Rect{}
	}
	out := Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d;%d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}
