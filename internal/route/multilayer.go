package route

import (
	"context"
	"fmt"
	"sort"

	"sprout/internal/geom"
	"sprout/internal/graph"
	"sprout/internal/obs"
)

// LayerSpace is one layer's available space for a net.
type LayerSpace struct {
	Layer int
	Avail geom.Region
}

// MLTerminal is a terminal pinned to a specific layer for multilayer
// planning (paper Appendix: T_n = {t_1^{l_1}, ..., t_k^{l_k}}).
type MLTerminal struct {
	Name    string
	Layer   int
	Shape   geom.Region
	Current float64
}

// Via is an interlayer connection placed by the multilayer planner.
type Via struct {
	At        geom.Point
	FromLayer int
	ToLayer   int
}

// ViaPlan is the decomposition of a multilayer routing problem into
// single-layer problems (paper Fig. 13c): the placed vias and, per layer,
// the terminal set (original terminals plus via lands).
type ViaPlan struct {
	Vias     []Via
	PerLayer map[int][]Terminal
}

// PlanMultilayerCtx runs the multilayer planning stage (paper Algorithm 6)
// under its tracing span, annotated with the resulting via count.
func PlanMultilayerCtx(ctx context.Context, spaces []LayerSpace, terms []MLTerminal, viaPitch int64, viaCost float64) (*ViaPlan, error) {
	_, sp, done := stageCtx(ctx, "MultilayerPlan",
		obs.A("layers", len(spaces)), obs.A("terminals", len(terms)))
	defer done()
	plan, err := planMultilayer(spaces, terms, viaPitch, viaCost)
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	sp.SetAttrs(obs.A("vias", len(plan.Vias)))
	return plan, nil
}

// stepCost is the multilayer planner's shortest-path cost: an edge costs
// its stored weight, 1 per lateral step and viaCost per via.
func stepCost(w float64) float64 { return w }

// planMultilayer determines the least-cost layer assignment for a net whose
// terminals cannot be connected within a single layer (paper Algorithm 6).
// It tiles every layer at the via pitch, builds the 3-D graph with
// via edges weighted viaCost (vs. 1 per lateral step), finds shortest
// paths between all terminal pairs, and converts the layer changes into
// vias. Each via becomes a terminal on both layers it joins.
func planMultilayer(spaces []LayerSpace, terms []MLTerminal, viaPitch int64, viaCost float64) (*ViaPlan, error) {
	if len(spaces) == 0 {
		return nil, fmt.Errorf("route: multilayer needs at least one layer space")
	}
	if len(terms) < 2 {
		return nil, fmt.Errorf("route: multilayer needs at least two terminals")
	}
	if viaPitch < 1 {
		return nil, fmt.Errorf("route: via pitch %d must be >= 1", viaPitch)
	}
	if viaCost <= 0 {
		viaCost = 1
	}
	// Sort layers ascending and index them.
	sorted := append([]LayerSpace(nil), spaces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Layer < sorted[j].Layer })
	layerIdx := map[int]int{}
	for i, ls := range sorted {
		if _, dup := layerIdx[ls.Layer]; dup {
			return nil, fmt.Errorf("route: duplicate layer %d", ls.Layer)
		}
		layerIdx[ls.Layer] = i
	}
	for _, t := range terms {
		if _, ok := layerIdx[t.Layer]; !ok {
			return nil, fmt.Errorf("route: terminal %q on layer %d with no available space", t.Name, t.Layer)
		}
	}

	// Tile each layer at the via pitch over the shared frame; cells are
	// whole grid boxes clipped to available space, one node per connected
	// piece, numbered layer by layer in piece order.
	type cell struct {
		layer int         // index into sorted
		rects []geom.Rect // the piece's fragments
	}
	var cells []cell
	var frame geom.Rect
	for _, ls := range sorted {
		frame = frame.Union(ls.Avail.Bounds())
	}
	tilings := make([]*tiling, len(sorted))
	first := make([]int, len(sorted)) // node id of each layer's piece 0
	for li, ls := range sorted {
		tilings[li] = tileRegion(ls.Avail, frame, viaPitch, viaPitch)
		first[li] = len(cells)
		for p := range tilings[li].numPieces() {
			cells = append(cells, cell{li, tilings[li].fragments(p)})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("route: no routable space on any layer")
	}

	// Lateral edges within a layer: unit cost wherever pieces touch.
	var edges []graph.Edge
	for li, t := range tilings {
		t.contacts(func(pa, pb int, _ int64, _ bool) {
			edges = append(edges, graph.Edge{U: first[li] + pa, V: first[li] + pb, Weight: 1})
		})
	}
	// Vertical (via) edges between adjacent layers where cells overlap.
	for li := 0; li+1 < len(tilings); li++ {
		lo, hi := tilings[li], tilings[li+1]
		for c := 0; c+1 < len(lo.cellStart); c++ {
			for a := lo.cellStart[c]; a < lo.cellStart[c+1]; a++ {
				for b := hi.cellStart[c]; b < hi.cellStart[c+1]; b++ {
					if !overlap(lo.fragments(a), hi.fragments(b)).Empty() {
						edges = append(edges, graph.Edge{U: first[li] + a, V: first[li+1] + b, Weight: viaCost})
					}
				}
			}
		}
	}
	g, err := graph.FromEdges(len(cells), edges)
	if err != nil {
		return nil, fmt.Errorf("route: multilayer graph: %w", err)
	}

	// Map terminals onto nodes (first overlapping cell on the terminal's
	// layer, Alg. 6 identifyTerminals).
	termNode := make([]int, len(terms))
	for ti, t := range terms {
		li := layerIdx[t.Layer]
		found := -1
		for id, c := range cells {
			if c.layer == li && overlapsAny(t.Shape, c.rects) {
				found = id
				break
			}
		}
		if found == -1 {
			return nil, fmt.Errorf("route: terminal %q overlaps no routable cell on layer %d", t.Name, t.Layer)
		}
		termNode[ti] = found
	}

	// Pairwise shortest paths; collect the via crossings.
	type viaKey struct {
		x, y   int64
		lo, hi int
	}
	viaSet := map[viaKey]bool{}
	for i := 0; i < len(terms); i++ {
		var dsts []int
		for j := i + 1; j < len(terms); j++ {
			dsts = append(dsts, termNode[j])
		}
		if len(dsts) == 0 {
			break
		}
		paths, err := g.ShortestPaths(termNode[i], dsts, stepCost)
		if err != nil {
			return nil, fmt.Errorf("route: multilayer path from %q: %w", terms[i].Name, err)
		}
		for _, p := range paths {
			for s := 0; s+1 < len(p); s++ {
				a, b := cells[p[s]], cells[p[s+1]]
				if a.layer == b.layer {
					continue
				}
				// Via at the centroid of the overlap.
				center := overlap(a.rects, b.rects).Center()
				lo, hi := a.layer, b.layer
				if lo > hi {
					lo, hi = hi, lo
				}
				viaSet[viaKey{center.X, center.Y, lo, hi}] = true
			}
		}
	}

	// Assemble the plan: original terminals plus a via land on each layer
	// the via joins.
	plan := &ViaPlan{PerLayer: map[int][]Terminal{}}
	for _, t := range terms {
		plan.PerLayer[t.Layer] = append(plan.PerLayer[t.Layer], Terminal{
			Name: t.Name, Shape: t.Shape, Current: t.Current,
		})
	}
	keys := make([]viaKey, 0, len(viaSet))
	for k := range viaSet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lo != keys[j].lo {
			return keys[i].lo < keys[j].lo
		}
		if keys[i].x != keys[j].x {
			return keys[i].x < keys[j].x
		}
		return keys[i].y < keys[j].y
	})
	padHalf := viaPitch / 4
	if padHalf < 1 {
		padHalf = 1
	}
	for vi, k := range keys {
		at := geom.Pt(k.x, k.y)
		v := Via{At: at, FromLayer: sorted[k.lo].Layer, ToLayer: sorted[k.hi].Layer}
		plan.Vias = append(plan.Vias, v)
		land := geom.RegionFromRect(geom.RectAround(at, padHalf))
		for _, layer := range []int{v.FromLayer, v.ToLayer} {
			// A via landing within one pitch of an existing terminal is
			// electrically that terminal's connection point; adding a
			// second terminal in the same routing tile would over-constrain
			// the single-layer pass.
			near := land.Bloat(viaPitch)
			merged := false
			for _, ex := range plan.PerLayer[layer] {
				if near.Overlaps(ex.Shape) {
					merged = true
					break
				}
			}
			if merged {
				continue
			}
			plan.PerLayer[layer] = append(plan.PerLayer[layer], Terminal{
				Name:    fmt.Sprintf("via%d", vi),
				Shape:   land.Intersect(sorted[layerIdx[layer]].Avail),
				Current: 1,
			})
		}
	}
	// Via lands clipped to empty space would break downstream routing.
	for layer, ts := range plan.PerLayer {
		for _, t := range ts {
			if t.Shape.Empty() {
				return nil, fmt.Errorf("route: via land %q empty on layer %d", t.Name, layer)
			}
		}
	}
	return plan, nil
}

// RouteLayerCtx routes one layer of a multilayer plan. The available space
// of a layer engaged by vias is typically disjoint (that is why vias were
// needed), so the layer is decomposed into connected components and every
// component holding two or more terminals is routed independently (paper
// Appendix: "the routing process is separately performed on each layer,
// from source to via, between vias, and from via to target"). Components
// with fewer than two terminals need no copper. cfg.AreaMax applies per
// component.
func RouteLayerCtx(ctx context.Context, avail geom.Region, terms []Terminal, cfg Config) ([]*Result, error) {
	comps := avail.Components()
	byComp := make([][]Terminal, len(comps))
	for _, t := range terms {
		placed := false
		for ci, comp := range comps {
			if comp.Overlaps(t.Shape) {
				byComp[ci] = append(byComp[ci], t)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("route: terminal %q overlaps no component of the layer space", t.Name)
		}
	}
	var out []*Result
	for ci, subset := range byComp {
		if len(subset) < 2 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := RouteCtx(ctx, comps[ci], subset, cfg)
		if err != nil {
			return nil, fmt.Errorf("route: component %d: %w", ci, err)
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("route: no component holds two terminals")
	}
	return out, nil
}

// LayersUsed returns the sorted layers that have two or more terminals in
// the plan and therefore need a single-layer routing pass.
func (p *ViaPlan) LayersUsed() []int {
	var out []int
	for layer, ts := range p.PerLayer {
		if len(ts) >= 2 {
			out = append(out, layer)
		}
	}
	sort.Ints(out)
	return out
}

// overlap returns the bounding box of the area two pieces' fragments
// share, empty when they share none.
func overlap(a, b []geom.Rect) geom.Rect {
	var box geom.Rect
	for _, ra := range a {
		for _, rb := range b {
			box = box.Union(ra.Intersect(rb))
		}
	}
	return box
}
