package route

import "sprout/internal/geom"

// tileRegionReference is tileRegion as it split boxes before its pieces
// came in the order of their first fragments: every box of several
// fragments rebuilt as a region of its own and split by rankComponents,
// each fragment dealt to the component holding its lower-left unit square.
// tileRegion must return the same fragment grouping, piece order and box
// starts.
func tileRegionReference(region geom.Region, frame geom.Rect, dx, dy int64) *tiling {
	t := &tiling{
		x0: frame.X0, y0: frame.Y0, dx: dx, dy: dy,
		nx: (frame.X1 - frame.X0 + dx - 1) / dx,
		ny: (frame.Y1 - frame.Y0 + dy - 1) / dy,
	}
	rects := region.Rects()
	boxes := func(r geom.Rect) (i0, i1, j0, j1 int64) {
		return (r.X0 - t.x0) / dx, (r.X1 - 1 - t.x0) / dx, (r.Y0 - t.y0) / dy, (r.Y1 - 1 - t.y0) / dy
	}
	nbox := t.nx * t.ny
	start := make([]int, nbox+1)
	for _, r := range rects {
		i0, i1, j0, j1 := boxes(r)
		for i := i0; i <= i1; i++ {
			for j := j0; j <= j1; j++ {
				start[i*t.ny+j+1]++
			}
		}
	}
	for c := int64(0); c < nbox; c++ {
		start[c+1] += start[c]
	}
	byBox := make([]geom.Rect, start[nbox])
	for _, r := range rects {
		i0, i1, j0, j1 := boxes(r)
		for i := i0; i <= i1; i++ {
			for j := j0; j <= j1; j++ {
				c := i*t.ny + j
				byBox[start[c]] = r.Intersect(geom.R(t.x0+i*dx, t.y0+j*dy, t.x0+(i+1)*dx, t.y0+(j+1)*dy))
				start[c]++
			}
		}
	}
	copy(start[1:], start[:nbox])
	start[0] = 0

	t.rects = byBox
	t.rectStart = []int{0}
	var held []geom.Rect
	for c, lo := int64(0), 0; c < nbox; c++ {
		hi := start[c+1]
		switch box := byBox[lo:hi]; len(box) {
		case 0:
		case 1:
			t.rectStart = append(t.rectStart, hi)
		default:
			comps := rankComponents(geom.RegionFromRects(box))
			if len(comps) == 1 {
				t.rectStart = append(t.rectStart, hi)
				break
			}
			held = append(held[:0], box...)
			at := lo
			for _, comp := range comps {
				for _, f := range held {
					if comp.OverlapsRect(geom.R(f.X0, f.Y0, f.X0+1, f.Y0+1)) {
						byBox[at] = f
						at++
					}
				}
				t.rectStart = append(t.rectStart, at)
			}
		}
		start[c+1] = t.numPieces()
		lo = hi
	}
	t.cellStart = start
	return t
}

// rankComponents is Region.Components as it numbered the components
// before they came in the order of their first rectangle: a union by rank
// over the Rects decomposition, with the rects of touching bands joined
// pair by pair in band order, and the components in ascending order of
// their roots.
func rankComponents(g geom.Region) []geom.Region {
	rects := g.Rects()
	parent := make([]int, len(rects))
	rank := make([]int, len(rects))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for i, a := range rects {
		for j := i + 1; j < len(rects); j++ {
			b := rects[j]
			if a.Y1 != b.Y0 || min(a.X1, b.X1) <= max(a.X0, b.X0) {
				continue
			}
			ra, rb := find(i), find(j)
			if ra == rb {
				continue
			}
			if rank[ra] < rank[rb] {
				ra, rb = rb, ra
			}
			parent[rb] = ra
			if rank[ra] == rank[rb] {
				rank[ra]++
			}
		}
	}
	var out []geom.Region
	for root := range rects {
		if find(root) != root {
			continue
		}
		var group []geom.Rect
		for i, r := range rects {
			if find(i) == root {
				group = append(group, r)
			}
		}
		out = append(out, geom.RegionFromRects(group))
	}
	return out
}
