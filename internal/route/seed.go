package route

import (
	"fmt"

	"sprout/internal/geom"
)

// TerminalPaths returns a minimum-resistance path between every terminal
// pair, in (i, j) order with i < j (paper Alg. 2 line 4: one Dijkstra pass
// per source terminal over the equivalent graph). An edge costs the
// reciprocal of its conductance, so low-resistance corridors are
// preferred; a zero-conductance edge costs +Inf and is never taken. An
// error names the source terminal whose search failed.
func (tg *TileGraph) TerminalPaths() ([][]int, error) {
	k := len(tg.Terminals)
	out := make([][]int, 0, k*(k-1)/2)
	for i := 0; i+1 < k; i++ {
		paths, err := tg.G.ShortestPaths(tg.Terminals[i], tg.Terminals[i+1:], resistance)
		if err != nil {
			return nil, fmt.Errorf("from terminal %d: %w", i, err)
		}
		out = append(out, paths...)
	}
	return out, nil
}

// resistance is the shortest-path cost of an edge of conductance w.
func resistance(w float64) float64 { return 1 / w }

// Seed builds the voidless seed subgraph of paper Algorithm 2: the union
// of minimum-resistance paths between every terminal pair, with interior
// voids filled to accelerate convergence (Fig. 8a-b). It returns the
// member mask over tile-graph nodes.
func (tg *TileGraph) Seed() ([]bool, error) {
	paths, err := tg.TerminalPaths()
	if err != nil {
		return nil, fmt.Errorf("route: seed %w", err)
	}
	members := make([]bool, tg.G.N())
	for _, p := range paths {
		for _, id := range p {
			members[id] = true
		}
	}
	tg.fillVoids(members)
	return members, nil
}

// fillVoids adds every node whose tile lies inside an interior void of the
// member shape (paper Alg. 2 lines 6-10: nodes within the exterior
// boundary of the seed polygon join the subgraph).
func (tg *TileGraph) fillVoids(members []bool) {
	shape := tg.Union(members)
	if shape.Empty() {
		return
	}
	frame := shape.Bounds()
	voids := geom.EmptyRegion()
	for _, comp := range geom.RegionFromRect(frame).Subtract(shape).Components() {
		if touchesFrame(comp, frame) {
			continue // open to the outside: not a void
		}
		voids = voids.Union(comp)
	}
	if voids.Empty() {
		return
	}
	for id := range members {
		if !members[id] && overlapsAny(voids, tg.Cells[id]) {
			members[id] = true
		}
	}
}

// touchesFrame reports whether the region reaches the frame boundary.
func touchesFrame(g geom.Region, frame geom.Rect) bool {
	b := g.Bounds()
	return b.X0 == frame.X0 || b.Y0 == frame.Y0 || b.X1 == frame.X1 || b.Y1 == frame.Y1
}
