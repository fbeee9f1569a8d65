package sparse

import "math"

// ApproxEqualTol reports whether a and b agree to within tol, combining
// an absolute test near zero with a relative one elsewhere. This is the
// comparison the floateq analyzer demands in place of == on floats. NaNs
// never compare equal, matching IEEE semantics.
func ApproxEqualTol(a, b, tol float64) bool {
	if a == b { //lint:ignore floateq the exact fast path is the point of this helper
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}
