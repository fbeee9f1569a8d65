package geom

import (
	"math/rand"
	"reflect"
	"testing"
)

// componentsOracle is Components by brute force: every pair of the Rects
// decomposition is tested for a shared edge of positive length, each
// component is collected by a depth-first walk from its smallest rect
// index and rebuilt with RegionFromRects. Components must return the same
// regions in the same order: by each component's first rectangle.
func componentsOracle(g Region) []Region {
	rects := g.Rects()
	seen := make([]bool, len(rects))
	var out []Region
	for first := range rects {
		if seen[first] {
			continue
		}
		seen[first] = true
		var group []Rect
		for stack := []int{first}; len(stack) > 0; {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			group = append(group, rects[i])
			for j, r := range rects {
				if !seen[j] && shareEdge(rects[i], r) {
					seen[j] = true
					stack = append(stack, j)
				}
			}
		}
		out = append(out, RegionFromRects(group))
	}
	return out
}

// shareEdge reports whether a and b touch along a boundary segment of
// positive length.
func shareEdge(a, b Rect) bool {
	xOverlap := min(a.X1, b.X1) - max(a.X0, b.X0)
	yOverlap := min(a.Y1, b.Y1) - max(a.Y0, b.Y0)
	return xOverlap > 0 && (a.Y1 == b.Y0 || b.Y1 == a.Y0) ||
		yOverlap > 0 && (a.X1 == b.X0 || b.X1 == a.X0)
}

// randomSlottedRegion builds a region with many touching bands and holes:
// random rectangles minus random slots, so components, corner contacts and
// bands with several spans are common.
func randomSlottedRegion(r *rand.Rand) Region {
	var add, cut []Rect
	for i := 0; i < 1+r.Intn(10); i++ {
		x, y := int64(r.Intn(60)-10), int64(r.Intn(60)-10)
		add = append(add, Rect{x, y, x + int64(1+r.Intn(30)), y + int64(1+r.Intn(30))})
	}
	for i := 0; i < r.Intn(12); i++ {
		x, y := int64(r.Intn(60)-10), int64(r.Intn(60)-10)
		cut = append(cut, Rect{x, y, x + int64(1+r.Intn(4)), y + int64(1+r.Intn(40))})
	}
	return RegionFromRects(add).Subtract(RegionFromRects(cut))
}

func TestComponentsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	multi := 0
	for i := 0; i < 3000; i++ {
		g := randomSlottedRegion(r)
		want := componentsOracle(g)
		got := g.Components()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d, region %v:\n got %v\nwant %v", i, g, got, want)
		}
		if len(want) > 1 {
			multi++
		}
	}
	if multi < 500 {
		t.Fatalf("only %d of 3000 random regions had several components", multi)
	}
}
