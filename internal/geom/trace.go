package geom

import "sort"

// Loop is a closed rectilinear boundary ring produced by tracing a Region.
// Vertices follow the interior-on-the-left convention: outer boundaries are
// counterclockwise (positive signed area), hole boundaries are clockwise
// (negative signed area).
type Loop struct {
	V []Point
}

// Polygon converts the loop to a Polygon value.
func (l Loop) Polygon() Polygon { return Polygon{V: l.V} }

// SignedArea2 returns twice the signed area of the loop.
func (l Loop) SignedArea2() int64 { return Polygon{V: l.V}.SignedArea2() }

// IsHole reports whether the loop is a hole (clockwise).
func (l Loop) IsHole() bool { return l.SignedArea2() < 0 }

// PolygonWithHoles couples an outer ring with the holes it contains,
// the natural output of paper §II-G back conversion.
type PolygonWithHoles struct {
	Outer Polygon
	Holes []Polygon
}

// dirEdge is a directed axis-parallel boundary edge (interior on the left).
type dirEdge struct {
	from, to Point
}

// Trace converts the region boundary into closed loops. The algorithm
// collects the directed boundary edges of the canonical rectangle
// decomposition, cancels coincident opposite segments shared by adjacent
// rectangles, and stitches the survivors into loops. At vertices where two
// loops touch corner-to-corner the sharpest-left-turn rule keeps each loop
// simple. Collinear runs are merged.
func (g Region) Trace() []Loop {
	if g.Empty() {
		return nil
	}
	edges := g.boundaryEdges()
	return stitchLoops(edges)
}

// Polygons groups traced loops into outer polygons with their holes.
func (g Region) Polygons() []PolygonWithHoles {
	loops := g.Trace()
	var outers, holes []Loop
	for _, l := range loops {
		if l.IsHole() {
			holes = append(holes, l)
		} else {
			outers = append(outers, l)
		}
	}
	out := make([]PolygonWithHoles, len(outers))
	for i, o := range outers {
		out[i].Outer = o.Polygon()
	}
	// Assign each hole to the smallest containing outer ring.
	for _, h := range holes {
		p := h.V[0]
		best := -1
		var bestArea int64
		for i, o := range outers {
			op := o.Polygon()
			if op.Contains(p) || op.Contains(Point{p.X, p.Y + 1}) {
				a := op.SignedArea2()
				if best == -1 || a < bestArea {
					best, bestArea = i, a
				}
			}
		}
		if best >= 0 {
			out[best].Holes = append(out[best].Holes, h.Polygon())
		}
	}
	return out
}

// boundaryEdges returns the directed boundary segments of the region with
// interior on the left, after cancelling interior-shared segments.
func (g Region) boundaryEdges() []dirEdge {
	var edges []dirEdge

	// Horizontal edges: at every band boundary y, coverage above minus
	// coverage below gives bottom edges (+x direction); coverage below minus
	// coverage above gives top edges (-x direction).
	type bandAt struct{ above, below []span }
	cov := map[int64]*bandAt{}
	at := func(y int64) *bandAt {
		if c, ok := cov[y]; ok {
			return c
		}
		c := &bandAt{}
		cov[y] = c
		return c
	}
	for _, b := range g.bands {
		at(b.Y0).above = b.Spans
		at(b.Y1).below = b.Spans
	}
	ys := make([]int64, 0, len(cov))
	for y := range cov {
		ys = append(ys, y)
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	onlyA := func(a, b bool) bool { return a && !b }
	var segs []span
	var xs []int64
	for _, y := range ys {
		c := cov[y]
		segs, xs = spanBool(segs[:0], xs, c.above, c.below, onlyA)
		for _, s := range segs {
			edges = append(edges, dirEdge{Point{s.X0, y}, Point{s.X1, y}}) // bottom: +x
		}
		segs, xs = spanBool(segs[:0], xs, c.below, c.above, onlyA)
		for _, s := range segs {
			edges = append(edges, dirEdge{Point{s.X1, y}, Point{s.X0, y}}) // top: -x
		}
	}

	// Vertical edges: span ends within each band. Left edge runs -y
	// (interior at +x on the left of travel), right edge runs +y.
	for _, b := range g.bands {
		for _, s := range b.Spans {
			edges = append(edges, dirEdge{Point{s.X0, b.Y1}, Point{s.X0, b.Y0}}) // left: -y
			edges = append(edges, dirEdge{Point{s.X1, b.Y0}, Point{s.X1, b.Y1}}) // right: +y
		}
	}
	return edges
}

// stitchLoops connects directed edges head-to-tail into closed loops.
func stitchLoops(edges []dirEdge) []Loop {
	// Index outgoing edges by start point.
	type key = Point
	out := map[key][]int{}
	for i, e := range edges {
		out[e.from] = append(out[e.from], i)
	}
	// Deterministic traversal order within a bucket.
	for _, lst := range out {
		sort.Slice(lst, func(i, j int) bool {
			a, b := edges[lst[i]], edges[lst[j]]
			if a.to.X != b.to.X {
				return a.to.X < b.to.X
			}
			return a.to.Y < b.to.Y
		})
	}
	used := make([]bool, len(edges))
	var loops []Loop
	for start := 0; start < len(edges); start++ {
		if used[start] {
			continue
		}
		startPt := edges[start].from
		var ring []Point
		cur := start
		for {
			used[cur] = true
			e := edges[cur]
			ring = append(ring, e.from)
			if e.to == startPt {
				break // closed the loop
			}
			next := pickNext(edges, out, used, e)
			if next == -1 {
				ring = nil // open chain: cannot happen for valid regions
				break
			}
			cur = next
		}
		ring = dedupCollinear(ring)
		if len(ring) >= 4 {
			loops = append(loops, Loop{V: ring})
		}
	}
	return loops
}

// pickNext selects the unused outgoing edge at e.to that makes the
// sharpest left turn relative to e's direction, which keeps loops simple
// at corner-touch vertices.
func pickNext(edges []dirEdge, out map[Point][]int, used []bool, e dirEdge) int {
	best := -1
	bestScore := -1
	dx, dy := sign(e.to.X-e.from.X), sign(e.to.Y-e.from.Y)
	for _, i := range out[e.to] {
		if used[i] {
			continue
		}
		ndx, ndy := sign(edges[i].to.X-edges[i].from.X), sign(edges[i].to.Y-edges[i].from.Y)
		score := turnScore(dx, dy, ndx, ndy)
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	return best
}

// turnScore ranks the turn from direction (dx,dy) to (nx,ny):
// left turn > straight > right turn > U-turn.
func turnScore(dx, dy, nx, ny int64) int {
	cross := dx*ny - dy*nx
	dot := dx*nx + dy*ny
	switch {
	case cross > 0:
		return 3 // left
	case cross == 0 && dot > 0:
		return 2 // straight
	case cross < 0:
		return 1 // right
	default:
		return 0 // U-turn
	}
}

func sign(v int64) int64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// dedupCollinear removes consecutive duplicate and collinear points from a
// closed ring.
func dedupCollinear(ring []Point) []Point {
	if len(ring) < 3 {
		return ring
	}
	// Remove consecutive duplicates first (closed).
	tmp := ring[:0]
	for i, p := range ring {
		if i == 0 || p != tmp[len(tmp)-1] {
			tmp = append(tmp, p)
		}
	}
	if len(tmp) > 1 && tmp[0] == tmp[len(tmp)-1] {
		tmp = tmp[:len(tmp)-1]
	}
	n := len(tmp)
	if n < 3 {
		return tmp
	}
	keep := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		prev := tmp[(i+n-1)%n]
		cur := tmp[i]
		next := tmp[(i+1)%n]
		cross := (cur.X-prev.X)*(next.Y-cur.Y) - (cur.Y-prev.Y)*(next.X-cur.X)
		if cross != 0 {
			keep = append(keep, cur)
		}
	}
	return keep
}
