// Package route implements the SPROUT power-routing core (paper §II): the
// available-space tiling into an equivalent conductance graph (Algorithm 1),
// the voidless seed subgraph (Algorithm 2), the node-current metric
// (Algorithm 3), SmartGrow (Algorithm 4), SmartRefine (Algorithm 5), the
// subgraph reheating of §II-F, back conversion to copper polygons (§II-G),
// and the multilayer via-placement decomposition of the Appendix
// (Algorithm 6).
package route

import (
	"cmp"
	"fmt"
	"slices"

	"sprout/internal/geom"
	"sprout/internal/graph"
)

// Terminal is a routing terminal: an electrically common shape (PMIC output
// via, BGA ball cluster, decap pad) with its expected current magnitude.
type Terminal struct {
	Name string
	// Shape is the terminal land geometry; every tile overlapping it is
	// contracted into one graph node (paper Fig. 7: "tiles overlapping vias
	// are treated as a single node").
	Shape geom.Region
	// Current is the expected current magnitude in amperes; it weights the
	// pairwise injections of the node-current metric (paper §II-D).
	Current float64
}

// TileGraph is the equivalent graph Γ_n of paper Algorithm 1: the available
// space divided into Δx×Δy tiles, one node per connected tile piece, with
// edge weights proportional to the conductance of the contact between
// adjacent tiles. Terminal tiles are contracted into single nodes.
type TileGraph struct {
	// G holds the conductance graph: edge weight = contact width divided by
	// the tile pitch across the contact (unitless "squares" of sheet
	// conductance). BuildTileGraph writes its rows directly, one entry per
	// neighbour with the parallel contacts summed, so every node's row
	// strictly ascends and a walk over the rows meets the edges sorted by
	// (a, b). Every nodal system rests on that: walking the rows in order
	// stamps the Laplacian in sorted edge order, bit-identical to a
	// from-scratch build (TestTileGraphAdjacencyAscends pins it).
	G *graph.Graph
	// Cells maps node id to its tile: the disjoint rectangles whose union
	// is the node's share of the available space. An ordinary node's
	// entry is a capped window of the tiling's fragments; a contracted
	// terminal node lists its root piece's fragments, then those of the
	// pieces joined to it. geom.RegionFromRects(Cells[i]) is the node's
	// canonical region.
	Cells [][]geom.Rect
	// Area holds each node's tile area, the sum of its fragments' areas.
	Area []int64
	// Terminals holds the node id of each input terminal, in input order.
	Terminals []int
	// TermCurrent holds the input terminals' current magnitudes.
	TermCurrent []float64
	// DX, DY are the tile dimensions.
	DX, DY int64
}

// BuildTileGraph converts an available space into its equivalent graph
// (paper Algorithm 1 SPACETOGRAPH) and contracts terminal tiles. It fails
// when a terminal has no routable tile or fewer than two terminals are
// given. It allocates per graph rather than per node: a node's cell is
// its tiling fragments, with no region built for it, the contracted
// terminals' fragments share one slice, and the contacts are written
// straight into the CSR rows that graph.FromRows takes over, with no
// contact list in between.
func BuildTileGraph(avail geom.Region, terms []Terminal, dx, dy int64) (*TileGraph, error) {
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
	t := tileRegion(avail, b, dx, dy)
	np := t.numPieces()
	if np == 0 {
		return nil, fmt.Errorf("route: available space produced no tiles")
	}

	// Contract terminal tiles, counting the joins. A join links under
	// the smaller root, so a contracted node takes its first piece's
	// place in the node order.
	var sets geom.Sets
	sets.Reset(np)
	joins := 0
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
		for i := max(i0, 0); i <= i1 && i < t.nx; i++ {
			for j := max(j0, 0); j <= j1 && j < t.ny; j++ {
				c := i*t.ny + j
				for p := t.cellStart[c]; p < t.cellStart[c+1]; p++ {
					if overlapsAny(term.Shape, t.fragments(p)) {
						if first == -1 {
							first = p
						} else if sets.Join(first, p) {
							joins++
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
			if sets.Find(termRoot[i]) == sets.Find(termRoot[j]) {
				return nil, fmt.Errorf("route: terminals %q and %q share a tile; reduce tile size",
					terms[i].Name, terms[j].Name)
			}
		}
	}

	// Assign final node ids (roots in ascending order for determinism). A
	// piece that is not its own root joins its root's node; its root comes
	// first, so that node already has its id and its root's fragments.
	nodeOf := make([]int, np)
	cells := make([][]geom.Rect, 0, np-joins)
	var joined []int
	size := 0 // fragments of the contracted nodes
	for p := range nodeOf {
		r := sets.Find(p)
		if r == p {
			nodeOf[p] = len(cells)
			cells = append(cells, t.fragments(p))
			continue
		}
		nodeOf[p] = nodeOf[r]
		joined = append(joined, p)
		size += len(t.fragments(p))
	}
	// A contracted node lists its root's fragments, then those of its
	// joined pieces in piece order; all such nodes share one slice.
	slices.SortStableFunc(joined, func(p, q int) int { return cmp.Compare(nodeOf[p], nodeOf[q]) })
	for i, p := range joined {
		if i == 0 || nodeOf[joined[i-1]] != nodeOf[p] {
			size += len(cells[nodeOf[p]])
		}
	}
	frags := make([]geom.Rect, 0, size)
	for i := 0; i < len(joined); {
		id := nodeOf[joined[i]]
		lo := len(frags)
		frags = append(frags, cells[id]...)
		for ; i < len(joined) && nodeOf[joined[i]] == id; i++ {
			frags = append(frags, t.fragments(joined[i])...)
		}
		cells[id] = frags[lo:len(frags):len(frags)]
	}
	areas := make([]int64, len(cells))
	for i, cell := range cells {
		for _, r := range cell {
			areas[i] += r.Area()
		}
	}

	// Edges: conductance = contact width / pitch across the contact, laid
	// out straight into CSR rows. A counting pass sizes the rows and a
	// fill pass writes each contact into both endpoints' rows in visit
	// order, with the sets' storage, free now, as the fill cursor.
	n := len(cells)
	rowPtr := make([]int, n+1)
	t.contacts(func(pa, pb int, _ int64, _ bool) {
		if na, nb := nodeOf[pa], nodeOf[pb]; na != nb {
			rowPtr[na+1]++
			rowPtr[nb+1]++
		}
	})
	for u := 0; u < n; u++ {
		rowPtr[u+1] += rowPtr[u]
	}
	to := make([]int, rowPtr[n])
	w := make([]float64, rowPtr[n])
	next := []int(sets[:n])
	copy(next, rowPtr)
	t.contacts(func(pa, pb int, length int64, up bool) {
		na, nb := nodeOf[pa], nodeOf[pb]
		if na == nb {
			return
		}
		pitch := dx
		if up {
			pitch = dy
		}
		c := float64(length) / float64(pitch)
		to[next[na]], w[next[na]] = nb, c
		next[na]++
		to[next[nb]], w[next[nb]] = na, c
		next[nb]++
	})
	// Sort each row stably by neighbour, sum the contacts to one
	// neighbour (contracted terminals) in visit order, and compact the
	// rows in place. Each row then strictly ascends, and both rows of a
	// pair sum the same contacts in the same order.
	k := 0
	for u := 0; u < n; u++ {
		lo, hi := rowPtr[u], rowPtr[u+1]
		rowPtr[u] = k
		for i := lo + 1; i < hi; i++ {
			v, c := to[i], w[i]
			j := i
			for ; j > lo && to[j-1] > v; j-- {
				to[j], w[j] = to[j-1], w[j-1]
			}
			to[j], w[j] = v, c
		}
		for i := lo; i < hi; i++ {
			if k > rowPtr[u] && to[k-1] == to[i] {
				w[k-1] += w[i]
				continue
			}
			to[k], w[k] = to[i], w[i]
			k++
		}
	}
	rowPtr[n] = k
	g, err := graph.FromRows(rowPtr, to[:k:k], w[:k:k])
	if err != nil {
		return nil, err
	}

	tg := &TileGraph{
		G:           g,
		Cells:       cells,
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

// tiling is the grid cut of Algorithm 1: a region divided into the dx×dy
// boxes of a grid anchored at (x0, y0), each box's share of the region
// split into edge-connected pieces. A piece is kept as its fragments, the
// disjoint clips of the region's canonical rectangles to its box, with no
// region built for it. Boxes are numbered column-major (box i*ny+j is
// column i, row j) and pieces follow box order, so piece order is the
// node order of the tile graph.
type tiling struct {
	x0, y0, dx, dy int64
	nx, ny         int64
	// Box c holds pieces cellStart[c] to cellStart[c+1]-1.
	cellStart []int
	// Piece p is the union of its fragments rects[rectStart[p]:rectStart[p+1]].
	rectStart []int
	rects     []geom.Rect
}

// tileRegion cuts region into the grid that covers frame at pitch dx×dy in
// one scan over the region's canonical rectangles: each rectangle is
// clipped into the boxes it crosses and the fragments are counting-sorted
// by box, keeping their band order. Each box's fragments are joined by
// geom.JoinTouching in one reused set; a box whose fragments form one set
// is one piece as it stands, and a box that splits deals its fragments
// out by root, its pieces in the order of their first fragments.
func tileRegion(region geom.Region, frame geom.Rect, dx, dy int64) *tiling {
	t := &tiling{
		x0: frame.X0, y0: frame.Y0, dx: dx, dy: dy,
		nx: (frame.X1 - frame.X0 + dx - 1) / dx,
		ny: (frame.Y1 - frame.Y0 + dy - 1) / dy,
	}
	// Count each box's fragments, then place them; the second pass visits
	// the rectangles in the same band order, so each box keeps it.
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
	// Placing a fragment advances its box's start, which leaves start[c]
	// at the end of box c; shifting by one restores the starts.
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

	// A box's pieces number its fragments less the joins among them, so
	// one pass of joins sizes the piece starts exactly.
	var sets geom.Sets
	pieces := 0
	for c, lo := int64(0), 0; c < nbox; c++ {
		hi := start[c+1]
		sets.Reset(hi - lo)
		pieces += hi - lo - geom.JoinTouching(sets, byBox[lo:hi])
		lo = hi
	}

	// Split each box into pieces. A piece's rectangles are its fragments,
	// regrouped in place by piece when a box splits, so byBox serves as
	// rects; start is rewritten in place from fragment to piece indices.
	t.rects = byBox
	t.rectStart = make([]int, 1, pieces+1)
	var held []geom.Rect
	for c, lo := int64(0), 0; c < nbox; c++ {
		hi := start[c+1]
		box := byBox[lo:hi]
		sets.Reset(len(box))
		switch {
		case len(box) == 0:
		case geom.JoinTouching(sets, box) == len(box)-1:
			t.rectStart = append(t.rectStart, hi)
		default:
			// A set's members follow its root, the smallest of them.
			held = append(held[:0], box...)
			at := lo
			for root := range held {
				if sets.Find(root) != root {
					continue
				}
				for f := root; f < len(held); f++ {
					if sets.Find(f) == root {
						byBox[at] = held[f]
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

// contacts calls fn for every pair of pieces in neighbouring boxes that
// share a boundary of positive length, with pa in the left or lower box,
// the contact length, and whether pb lies above pa rather than to its
// right. Pairs come in ascending (pa, up, pb) order: each piece in turn
// reports its contacts to the right, then those above.
func (t *tiling) contacts(fn func(pa, pb int, length int64, up bool)) {
	for i := int64(0); i < t.nx; i++ {
		for j := int64(0); j < t.ny; j++ {
			c := i*t.ny + j
			for pa := t.cellStart[c]; pa < t.cellStart[c+1]; pa++ {
				if i+1 < t.nx {
					at, n := t.x0+(i+1)*t.dx, c+t.ny
					for pb := t.cellStart[n]; pb < t.cellStart[n+1]; pb++ {
						if l := t.seam(pa, pb, at, false); l > 0 {
							fn(pa, pb, l, false)
						}
					}
				}
				if j+1 < t.ny {
					at, n := t.y0+(j+1)*t.dy, c+1
					for pb := t.cellStart[n]; pb < t.cellStart[n+1]; pb++ {
						if l := t.seam(pa, pb, at, true); l > 0 {
							fn(pa, pb, l, true)
						}
					}
				}
			}
		}
	}
}

// numPieces returns the number of pieces.
func (t *tiling) numPieces() int { return len(t.rectStart) - 1 }

// fragments returns the disjoint rectangles whose union is piece p, as a
// window capped at its end.
func (t *tiling) fragments(p int) []geom.Rect {
	lo, hi := t.rectStart[p], t.rectStart[p+1]
	return t.rects[lo:hi:hi]
}

// seam returns the length of the grid line at `at` along which piece pa
// meets piece pb: the 1-D overlap of pa's rectangles ending on the line
// with pb's rectangles starting on it — in y across the vertical line
// x = at, in x across the horizontal line y = at (up).
func (t *tiling) seam(pa, pb int, at int64, up bool) int64 {
	var total int64
	for _, a := range t.fragments(pa) {
		if !up && a.X1 != at || up && a.Y1 != at {
			continue
		}
		for _, b := range t.fragments(pb) {
			switch {
			case !up && b.X0 == at:
				total += max(0, min(a.Y1, b.Y1)-max(a.Y0, b.Y0))
			case up && b.Y0 == at:
				total += max(0, min(a.X1, b.X1)-max(a.X0, b.X0))
			}
		}
	}
	return total
}

// IsTerminal reports whether node id is a terminal node.
func (tg *TileGraph) IsTerminal(id int) bool {
	for _, t := range tg.Terminals {
		if t == id {
			return true
		}
	}
	return false
}

// Union returns the copper region covered by the given member mask
// (paper §II-G back conversion: the subgraph maps back to merged tiles).
func (tg *TileGraph) Union(members []bool) geom.Region {
	var rects []geom.Rect
	for id, in := range members {
		if in {
			rects = append(rects, tg.Cells[id]...)
		}
	}
	return geom.RegionFromRects(rects)
}

// Bounds returns the bounding box of node id's tile.
func (tg *TileGraph) Bounds(id int) geom.Rect {
	var b geom.Rect
	for _, r := range tg.Cells[id] {
		b = b.Union(r)
	}
	return b
}

// overlapsAny reports whether shape shares area with any of the rects.
func overlapsAny(shape geom.Region, rects []geom.Rect) bool {
	for _, r := range rects {
		if shape.OverlapsRect(r) {
			return true
		}
	}
	return false
}

// MembersArea sums the tile areas of the member mask.
func (tg *TileGraph) MembersArea(members []bool) int64 {
	var total int64
	for id, in := range members {
		if in {
			total += tg.Area[id]
		}
	}
	return total
}

// MemberCount returns the number of set entries in the mask.
func MemberCount(members []bool) int {
	n := 0
	for _, in := range members {
		if in {
			n++
		}
	}
	return n
}
