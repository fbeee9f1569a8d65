// Package manual emulates the human PCB designer that SPROUT is compared
// against in the paper's Tables II and III. The paper observes that
// "regular geometries are utilized primarily in the manual layout": a
// designer connects the PMIC to the BGA field with straight or L-shaped
// copper trunks of uniform width. This package reproduces that style
// deterministically: it finds the terminal-to-terminal backbone through
// the available space, rectifies it into axis-aligned corridor rectangles
// of one uniform width, and sizes the width so the copper area matches the
// same budget given to SPROUT — an apples-to-apples baseline.
package manual

import (
	"fmt"
	"slices"

	"sprout/internal/geom"
	"sprout/internal/route"
)

// Result is a manually-styled routed net.
type Result struct {
	// Shape is the corridor copper clipped to the available space.
	Shape geom.Region
	// Width is the uniform width of the corridor copper, chosen to meet
	// the area target.
	Width int64
}

// Route produces a regular-geometry layout connecting the terminals with
// uniform-width corridors whose total area approximates areaTarget.
// tile sets the backbone search granularity (same units as the geometry):
// the space is tiled at tile×tile and routed by RouteGraph.
func Route(avail geom.Region, terms []route.Terminal, areaTarget int64, tile int64) (*Result, error) {
	if tile < 1 {
		return nil, fmt.Errorf("manual: tile %d must be >= 1", tile)
	}
	tg, err := route.BuildTileGraph(avail, terms, tile, tile)
	if err != nil {
		return nil, fmt.Errorf("manual: %w", err)
	}
	return RouteGraph(tg, avail, terms, areaTarget)
}

// RouteGraph is Route on a built tile graph: tg must be the tiling of
// avail with terms at a square pitch, as BuildTileGraph returns it. The
// backbones run through tg, which RouteGraph only reads, so a caller can
// share the graph it routed the same space on. The width search reuses
// its rectangle, union-find and terminal storage across its rounds.
func RouteGraph(tg *route.TileGraph, avail geom.Region, terms []route.Terminal, areaTarget int64) (*Result, error) {
	if areaTarget <= 0 {
		return nil, fmt.Errorf("manual: area target %d must be positive", areaTarget)
	}
	polylines, err := backbones(tg)
	if err != nil {
		return nil, err
	}

	pads := padRegion(terms)

	// Every segment of a polyline adds at most two steps, and every step
	// at most one rectangle.
	steps := 0
	for _, line := range polylines {
		steps += 2 * max(len(line)-1, 0)
	}
	c := corridorRects{rects: make([]geom.Rect, 0, steps)}
	var link linkScratch

	// Binary search the corridor width to hit the area target. Wider
	// corridors clip against the space, so area is monotone in width.
	// Keep the candidate whose area lands closest to the target so the
	// comparison against SPROUT uses equal metal.
	lo, hi := int64(1), avail.Bounds().W()+avail.Bounds().H()
	var best geom.Region
	var bestW int64
	var bestDiff int64 = -1
	for lo <= hi {
		w := (lo + hi) / 2
		shape := c.draw(polylines, w).Intersect(avail).Union(pads)
		if !link.connects(shape, terms) {
			lo = w + 1 // too thin somewhere after clipping
			continue
		}
		diff := shape.Area() - areaTarget
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			best, bestW, bestDiff = shape, 2*halfWidth(w), diff
		}
		if shape.Area() < areaTarget {
			lo = w + 1
		} else {
			hi = w - 1
		}
	}
	if best.Empty() {
		return nil, fmt.Errorf("manual: no corridor width connects all terminals")
	}
	return &Result{Shape: best, Width: bestW}, nil
}

// padRegion is the union of the terminals' shapes.
func padRegion(terms []route.Terminal) geom.Region {
	var rects []geom.Rect
	for _, t := range terms {
		rects = t.Shape.AppendRects(rects)
	}
	return geom.RegionFromRects(rects)
}

// backbones extracts the pairwise center-line polylines through the tile
// graph: the route layer's terminal-pair paths, through tile centers.
func backbones(tg *route.TileGraph) ([][]geom.Point, error) {
	paths, err := tg.TerminalPaths()
	if err != nil {
		return nil, fmt.Errorf("manual: backbone: %w", err)
	}
	out := make([][]geom.Point, len(paths))
	for i, p := range paths {
		line := make([]geom.Point, len(p))
		for pi, id := range p {
			line[pi] = tg.Bounds(id).Center()
		}
		out[i] = line
	}
	return out, nil
}

// halfWidth is how far a corridor drawn for the width probe w reaches
// from its center line: the copper is 2·halfWidth(w) wide, so an odd
// probe draws one unit less than itself and a probe of 1 draws 2.
func halfWidth(w int64) int64 { return max(w/2, 1) }

// corridorRects collects the padded rectangles of axis-aligned steps,
// merging each step into the straight run before it.
type corridorRects struct {
	half  int64
	rects []geom.Rect
	// run bounds the points of the open run, which lie on one
	// horizontal or vertical line.
	run  geom.Rect
	open bool
}

// draw converts polylines into a union of axis-aligned rectangles drawn
// for the width probe w. Diagonal steps between tile centers are
// rectified into an L (horizontal then vertical), which is exactly the
// "regular geometry" a human designer draws. Consecutive steps along one
// line form one rectangle: the padded steps of a straight run overlap end
// to end, so their union is the padded run. The rectangles are collected
// in c.rects, whose storage the next draw reuses.
func (c *corridorRects) draw(polylines [][]geom.Point, w int64) geom.Region {
	c.half, c.rects, c.open = halfWidth(w), c.rects[:0], false
	for _, line := range polylines {
		for i := 0; i+1 < len(line); i++ {
			a, b := line[i], line[i+1]
			if a.X == b.X || a.Y == b.Y {
				c.step(a, b)
				continue
			}
			corner := geom.Pt(b.X, a.Y)
			c.step(a, corner)
			c.step(corner, b)
		}
		c.flush()
	}
	return geom.RegionFromRects(c.rects)
}

// step adds the step from a to b, which starts where the last one ended.
func (c *corridorRects) step(a, b geom.Point) {
	s := geom.Rect{X0: min(a.X, b.X), Y0: min(a.Y, b.Y), X1: max(a.X, b.X), Y1: max(a.Y, b.Y)}
	if c.open {
		u := geom.Rect{X0: min(c.run.X0, s.X0), Y0: min(c.run.Y0, s.Y0), X1: max(c.run.X1, s.X1), Y1: max(c.run.Y1, s.Y1)}
		if u.X0 == u.X1 || u.Y0 == u.Y1 {
			c.run = u
			return
		}
		c.flush()
	}
	c.run, c.open = s, true
}

// flush emits the open run padded by half on every side. The run is
// degenerate (zero width or height), and Expand treats degenerate rects
// as empty, so the padded rect is built directly.
func (c *corridorRects) flush() {
	if c.open {
		r := c.run
		c.rects = append(c.rects, geom.R(r.X0-c.half, r.Y0-c.half, r.X1+c.half, r.Y1+c.half))
		c.open = false
	}
}

// linkScratch is the storage connects reuses across the rounds of one
// width search.
type linkScratch struct {
	rects []geom.Rect
	sets  geom.Sets
	// seen[r] counts the terminals, in input order, that the component
	// rooted at rectangle r has met without a gap.
	seen []int
}

// connects reports whether one edge-connected component of the shape
// touches every terminal. The shape's rectangles are joined in one
// union-find; terminal by terminal, a component advances when one of its
// rectangles overlaps the terminal and it has met every earlier one.
func (s *linkScratch) connects(shape geom.Region, terms []route.Terminal) bool {
	s.rects = shape.AppendRects(s.rects[:0])
	n := len(s.rects)
	if n == 0 {
		return false
	}
	s.sets.Reset(n)
	geom.JoinTouching(s.sets, s.rects)
	s.seen = slices.Grow(s.seen[:0], n)[:n]
	clear(s.seen)
	for ti, t := range terms {
		advanced := false
		for i, r := range s.rects {
			if root := s.sets.Find(i); s.seen[root] == ti && t.Shape.OverlapsRect(r) {
				s.seen[root] = ti + 1
				advanced = true
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}
