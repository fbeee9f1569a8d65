package route

import (
	"fmt"
	"sort"
	"testing"

	"sprout/internal/geom"
	"sprout/internal/graph"
)

// buildTileGraphOracle is the original Alg. 1 builder, kept as the
// reference BuildTileGraph must reproduce exactly: every grid box is
// clipped from the whole space with Intersect and split with
// Components, boxes are indexed by a map, and contacts are measured by
// contactLength's shifted-region intersections.
func buildTileGraphOracle(avail geom.Region, terms []Terminal, dx, dy int64) (*TileGraph, error) {
	if dx < 1 || dy < 1 {
		return nil, fmt.Errorf("route: tile size %dx%d must be >= 1", dx, dy)
	}
	if len(terms) < 2 {
		return nil, fmt.Errorf("route: need at least 2 terminals, got %d", len(terms))
	}
	if avail.Empty() {
		return nil, fmt.Errorf("route: empty available space")
	}
	b := avail.Bounds()

	// Cut the available space into tiles; a tile whose intersection with
	// the space is disconnected becomes several nodes so that the graph
	// never conducts across a gap inside one grid box.
	type rawCell struct {
		region geom.Region
		col    int64
		row    int64
	}
	var raw []rawCell
	// cellsAt[col][row] -> indices into raw (tiles may split into pieces).
	nx := (b.X1 - b.X0 + dx - 1) / dx
	ny := (b.Y1 - b.Y0 + dy - 1) / dy
	cellsAt := make(map[[2]int64][]int)
	for i := int64(0); i < nx; i++ {
		x0 := b.X0 + i*dx
		x1 := x0 + dx
		for j := int64(0); j < ny; j++ {
			y0 := b.Y0 + j*dy
			y1 := y0 + dy
			cell := avail.Intersect(geom.RegionFromRect(geom.R(x0, y0, x1, y1)))
			if cell.Empty() {
				continue
			}
			for _, piece := range cell.Components() {
				cellsAt[[2]int64{i, j}] = append(cellsAt[[2]int64{i, j}], len(raw))
				raw = append(raw, rawCell{piece, i, j})
			}
		}
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("route: available space produced no tiles")
	}

	// Contract terminal tiles with union-find.
	parent := make([]int, len(raw))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		//lint:ignore ctxdelegate union-find path halving: the walk shortens the chain every step, bounded by tree depth
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	termRoot := make([]int, len(terms))
	for ti, term := range terms {
		if term.Shape.Empty() {
			return nil, fmt.Errorf("route: terminal %q has empty shape", term.Name)
		}
		first := -1
		tb := term.Shape.Bounds()
		i0 := (tb.X0 - b.X0) / dx
		i1 := (tb.X1 - b.X0) / dx
		j0 := (tb.Y0 - b.Y0) / dy
		j1 := (tb.Y1 - b.Y0) / dy
		for i := i0; i <= i1 && i < nx; i++ {
			for j := j0; j <= j1 && j < ny; j++ {
				if i < 0 || j < 0 {
					continue
				}
				for _, ri := range cellsAt[[2]int64{i, j}] {
					if raw[ri].region.Overlaps(term.Shape) {
						if first == -1 {
							first = ri
						} else {
							union(first, ri)
						}
					}
				}
			}
		}
		if first == -1 {
			return nil, fmt.Errorf("route: terminal %q overlaps no routable tile (blocked by clearances?)", term.Name)
		}
		termRoot[ti] = first
	}
	// Two terminals contracted into the same node is a modelling error.
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			if find(termRoot[i]) == find(termRoot[j]) {
				return nil, fmt.Errorf("route: terminals %q and %q share a tile; reduce tile size",
					terms[i].Name, terms[j].Name)
			}
		}
	}

	// Assign final node ids (roots in ascending order for determinism).
	nodeOf := make([]int, len(raw))
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	var cells []geom.Region
	var areas []int64
	for i := range raw {
		r := find(i)
		if nodeOf[r] == -1 {
			nodeOf[r] = len(cells)
			cells = append(cells, geom.EmptyRegion())
			areas = append(areas, 0)
		}
		nodeOf[i] = nodeOf[r]
		cells[nodeOf[r]] = cells[nodeOf[r]].Union(raw[i].region)
	}
	for i := range cells {
		areas[i] = cells[i].Area()
	}

	// Edges: adjacent columns/rows; conductance = contact width / pitch.
	type edgeKey struct{ a, b int }
	acc := map[edgeKey]float64{}
	addContact := func(ra, rb rawCell, na, nb int) {
		if na == nb {
			return
		}
		contact := contactLength(ra.region, rb.region)
		if contact <= 0 {
			return
		}
		var w float64
		if ra.col != rb.col {
			w = float64(contact) / float64(dx)
		} else {
			w = float64(contact) / float64(dy)
		}
		k := edgeKey{na, nb}
		if na > nb {
			k = edgeKey{nb, na}
		}
		acc[k] += w
	}
	for i, rc := range raw {
		ni := nodeOf[i]
		// Right neighbor column and upper neighbor row.
		for _, d := range [2][2]int64{{1, 0}, {0, 1}} {
			for _, rj := range cellsAt[[2]int64{rc.col + d[0], rc.row + d[1]}] {
				addContact(rc, raw[rj], ni, nodeOf[rj])
			}
		}
	}
	keys := make([]edgeKey, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	edges := make([]graph.Edge, len(keys))
	for i, k := range keys {
		edges[i] = graph.Edge{U: k.a, V: k.b, Weight: acc[k]}
	}
	g, err := graph.FromEdges(len(cells), edges)
	if err != nil {
		return nil, err
	}

	cellRects := make([][]geom.Rect, len(cells))
	for i, cell := range cells {
		cellRects[i] = cell.Rects()
	}
	tg := &TileGraph{
		G:           g,
		Cells:       cellRects,
		Area:        areas,
		Terminals:   make([]int, len(terms)),
		TermCurrent: make([]float64, len(terms)),
		DX:          dx,
		DY:          dy,
	}
	for ti := range terms {
		tg.Terminals[ti] = nodeOf[termRoot[ti]]
		cur := terms[ti].Current
		if cur <= 0 {
			cur = 1
		}
		tg.TermCurrent[ti] = cur
	}
	return tg, nil
}

// contactLength returns the length of the shared boundary between two
// disjoint regions that touch along grid lines. It shifts a by one unit in
// each axis direction and measures the overlap area with b: the overlap is
// a one-unit-thick sliver whose area equals the contact length.
func contactLength(a, b geom.Region) int64 {
	var total int64
	for _, d := range []geom.Point{{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1}} {
		shifted := a.Rects()
		for i, r := range shifted {
			shifted[i] = geom.R(r.X0+d.X, r.Y0+d.Y, r.X1+d.X, r.Y1+d.Y)
		}
		total += geom.RegionFromRects(shifted).Intersect(b).Area()
	}
	// Each touching segment is counted once by exactly one direction since
	// a and b are disjoint; shifting both ways catches either ordering.
	return total
}

func TestContactLength(t *testing.T) {
	a := geom.RegionFromRect(geom.R(0, 0, 10, 10))
	b := geom.RegionFromRect(geom.R(10, 2, 20, 8))
	if got := contactLength(a, b); got != 6 {
		t.Fatalf("contact = %d, want 6", got)
	}
	c := geom.RegionFromRect(geom.R(10, 10, 20, 20)) // corner touch
	if got := contactLength(a, c); got != 0 {
		t.Fatalf("corner contact = %d, want 0", got)
	}
	d := geom.RegionFromRect(geom.R(30, 0, 40, 10)) // far away
	if got := contactLength(a, d); got != 0 {
		t.Fatalf("distant contact = %d, want 0", got)
	}
}
