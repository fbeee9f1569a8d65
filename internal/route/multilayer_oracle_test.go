package route

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sprout/internal/geom"
	"sprout/internal/graph"
)

// planMultilayerOracle is the original Algorithm 6 planner, kept as the
// reference planMultilayer must reproduce: it tiles each layer with its own
// per-box Intersect+Components loop over map-indexed grids, measures
// lateral contacts with contactLength, and adds edges grid box by grid
// box. The original ranged over the box maps in Go's unspecified map
// order, which makes its choice among equal-cost paths vary from run to
// run; this copy visits the boxes in ascending order (sortedBoxes), one of
// the orders the original could take, and is otherwise unchanged.
func planMultilayerOracle(spaces []LayerSpace, terms []MLTerminal, viaPitch int64, viaCost float64) (*ViaPlan, error) {
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

	// Tile each layer at the via pitch; cells are whole grid boxes clipped
	// to available space, one node per connected piece.
	type cell struct {
		layer int // index into sorted
		shape geom.Region
	}
	var cells []cell
	// Per layer, map grid box -> node ids.
	grids := make([]map[[2]int64][]int, len(sorted))
	var frame geom.Rect
	for _, ls := range sorted {
		frame = frame.Union(ls.Avail.Bounds())
	}
	for li, ls := range sorted {
		grids[li] = map[[2]int64][]int{}
		if ls.Avail.Empty() {
			continue
		}
		nx := (frame.X1 - frame.X0 + viaPitch - 1) / viaPitch
		ny := (frame.Y1 - frame.Y0 + viaPitch - 1) / viaPitch
		for i := int64(0); i < nx; i++ {
			for j := int64(0); j < ny; j++ {
				box := geom.R(frame.X0+i*viaPitch, frame.Y0+j*viaPitch,
					frame.X0+(i+1)*viaPitch, frame.Y0+(j+1)*viaPitch)
				piece := ls.Avail.Intersect(geom.RegionFromRect(box))
				if piece.Empty() {
					continue
				}
				for _, comp := range piece.Components() {
					grids[li][[2]int64{i, j}] = append(grids[li][[2]int64{i, j}], len(cells))
					cells = append(cells, cell{li, comp})
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("route: no routable space on any layer")
	}

	var edges []graph.Edge
	// Lateral edges within a layer.
	for li := range sorted {
		for _, key := range sortedBoxes(grids[li]) {
			ids := grids[li][key]
			for _, d := range [2][2]int64{{1, 0}, {0, 1}} {
				nkey := [2]int64{key[0] + d[0], key[1] + d[1]}
				for _, a := range ids {
					for _, bid := range grids[li][nkey] {
						if contactLength(cells[a].shape, cells[bid].shape) > 0 {
							edges = append(edges, graph.Edge{U: a, V: bid, Weight: 1})
						}
					}
				}
			}
		}
	}
	// Vertical (via) edges between adjacent layers where cells overlap.
	for li := 0; li+1 < len(sorted); li++ {
		for _, key := range sortedBoxes(grids[li]) {
			ids := grids[li][key]
			for _, a := range ids {
				for _, bid := range grids[li+1][key] {
					if cells[a].shape.Overlaps(cells[bid].shape) {
						edges = append(edges, graph.Edge{U: a, V: bid, Weight: viaCost})
					}
				}
			}
		}
	}
	g, err := graph.FromEdges(len(cells), edges)
	if err != nil {
		return nil, err
	}

	// Map terminals onto nodes (first overlapping cell on the terminal's
	// layer, Alg. 6 identifyTerminals).
	termNode := make([]int, len(terms))
	for ti, t := range terms {
		li := layerIdx[t.Layer]
		found := -1
		for id, c := range cells {
			if c.layer == li && c.shape.Overlaps(t.Shape) {
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
				ov := a.shape.Intersect(b.shape)
				center := ov.Bounds().Center()
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

// sortedBoxes returns the keys of a box map in ascending (column, row)
// order, the node order of the tiling.
func sortedBoxes(grid map[[2]int64][]int) [][2]int64 {
	keys := make([][2]int64, 0, len(grid))
	for k := range grid {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// randomMLScene builds a two- or three-layer scene: each layer is a board
// frame with random walls and slots cut out (sometimes a full-height wall,
// so vias become necessary), and two to four terminals sit on random
// layers.
func randomMLScene(r *rand.Rand) ([]LayerSpace, []MLTerminal, int64, float64) {
	ox, oy := int64(r.Intn(41)-20), int64(r.Intn(41)-20)
	w, h := int64(30+r.Intn(90)), int64(20+r.Intn(50))
	nl := 2 + r.Intn(2)
	layers := r.Perm(6)[:nl]
	var spaces []LayerSpace
	for _, l := range layers {
		avail := geom.RegionFromRect(geom.R(ox, oy, ox+w, oy+h))
		if r.Intn(2) == 0 {
			x := ox + int64(r.Intn(int(w)))
			avail = avail.Subtract(geom.RegionFromRect(geom.R(x, oy, x+int64(1+r.Intn(8)), oy+h)))
		}
		for k := r.Intn(5); k > 0; k-- {
			x, y := ox+int64(r.Intn(int(w))), oy+int64(r.Intn(int(h)))
			avail = avail.Subtract(geom.RegionFromRect(geom.R(x, y, x+int64(1+r.Intn(12)), y+int64(1+r.Intn(12)))))
		}
		spaces = append(spaces, LayerSpace{Layer: l + 1, Avail: avail})
	}
	var terms []MLTerminal
	for k := 2 + r.Intn(3); k > 0; k-- {
		x, y := ox+int64(r.Intn(int(w-4))), oy+int64(r.Intn(int(h-4)))
		terms = append(terms, MLTerminal{
			Name:    fmt.Sprintf("t%d", len(terms)),
			Layer:   spaces[r.Intn(nl)].Layer,
			Shape:   geom.RegionFromRect(geom.R(x, y, x+int64(1+r.Intn(4)), y+int64(1+r.Intn(4)))),
			Current: 1,
		})
	}
	return spaces, terms, int64(4 + r.Intn(9)), float64(1 + r.Intn(6))
}

// TestPlanMultilayerMatchesOracle checks that planning through the shared
// Alg. 1 tiling returns exactly the plans (or errors) of the original
// planner on the Fig. 13 scene and on seeded random two- and three-layer
// scenes.
func TestPlanMultilayerMatchesOracle(t *testing.T) {
	check := func(name string, spaces []LayerSpace, terms []MLTerminal, pitch int64, viaCost float64) bool {
		t.Helper()
		want, werr := planMultilayerOracle(spaces, terms, pitch, viaCost)
		got, gerr := PlanMultilayerCtx(context.Background(), spaces, terms, pitch, viaCost)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%s: error %v, oracle %v", name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: plan\n got %+v\nwant %+v", name, got, want)
		}
		return werr == nil && len(want.Vias) > 0
	}
	spaces, terms := disjointScene()
	if !check("disjointScene", spaces, terms, 10, 4) {
		t.Fatal("disjointScene must plan vias")
	}
	r := rand.New(rand.NewSource(13))
	withVias := 0
	const scenes = 240
	for i := 0; i < scenes; i++ {
		spaces, terms, pitch, viaCost := randomMLScene(r)
		if check(fmt.Sprintf("scene %d", i), spaces, terms, pitch, viaCost) {
			withVias++
		}
	}
	if withVias < scenes/4 {
		t.Fatalf("only %d of %d random scenes planned vias", withVias, scenes)
	}
}
