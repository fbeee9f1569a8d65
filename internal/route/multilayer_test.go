package route

import (
	"context"
	"testing"

	"sprout/internal/geom"
)

// disjointScene reproduces paper Fig. 5b / Fig. 13: layer 1's available
// space is split by a full-height wall; layer 2 is open, so the route must
// descend through a via and come back up.
func disjointScene() ([]LayerSpace, []MLTerminal) {
	l1 := geom.RegionFromRect(geom.R(0, 0, 100, 40)).
		Subtract(geom.RegionFromRect(geom.R(45, 0, 55, 40)))
	l2 := geom.RegionFromRect(geom.R(0, 0, 100, 40))
	spaces := []LayerSpace{{Layer: 1, Avail: l1}, {Layer: 2, Avail: l2}}
	terms := []MLTerminal{
		{Name: "S", Layer: 1, Shape: geom.RegionFromRect(geom.R(0, 15, 5, 25)), Current: 1},
		{Name: "T", Layer: 1, Shape: geom.RegionFromRect(geom.R(95, 15, 100, 25)), Current: 1},
	}
	return spaces, terms
}

func TestPlanMultilayerUsesVias(t *testing.T) {
	spaces, terms := disjointScene()
	plan, err := PlanMultilayerCtx(context.Background(), spaces, terms, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Vias) < 2 {
		t.Fatalf("expected >= 2 vias (down and up), got %d", len(plan.Vias))
	}
	for _, v := range plan.Vias {
		if v.FromLayer != 1 || v.ToLayer != 2 {
			t.Fatalf("via layers = %d->%d, want 1->2", v.FromLayer, v.ToLayer)
		}
	}
	// Vias must land on both sides of the wall for the descent/ascent.
	var left, right bool
	for _, v := range plan.Vias {
		if v.At.X < 45 {
			left = true
		}
		if v.At.X >= 55 {
			right = true
		}
	}
	if !left || !right {
		t.Fatalf("vias must bracket the wall: %+v", plan.Vias)
	}
	used := plan.LayersUsed()
	if len(used) != 2 || used[0] != 1 || used[1] != 2 {
		t.Fatalf("layers used = %v, want [1 2]", used)
	}
}

func TestPlanMultilayerMinimizesVias(t *testing.T) {
	// Open single layer: the cheapest plan must use no vias even though a
	// second layer exists.
	l1 := geom.RegionFromRect(geom.R(0, 0, 100, 40))
	l2 := geom.RegionFromRect(geom.R(0, 0, 100, 40))
	spaces := []LayerSpace{{Layer: 1, Avail: l1}, {Layer: 2, Avail: l2}}
	terms := []MLTerminal{
		{Name: "S", Layer: 1, Shape: geom.RegionFromRect(geom.R(0, 15, 5, 25))},
		{Name: "T", Layer: 1, Shape: geom.RegionFromRect(geom.R(95, 15, 100, 25))},
	}
	plan, err := PlanMultilayerCtx(context.Background(), spaces, terms, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Vias) != 0 {
		t.Fatalf("open layer must need no vias, got %+v", plan.Vias)
	}
	if used := plan.LayersUsed(); len(used) != 1 || used[0] != 1 {
		t.Fatalf("layers used = %v, want [1]", used)
	}
}

func TestPlanMultilayerEndToEndRoute(t *testing.T) {
	// Full decomposition: plan vias, route each engaged layer, then verify
	// that copper shapes plus via columns form one electrically continuous
	// path from S to T across layers (paper Fig. 13c).
	const viaPitch = 10
	spaces, terms := disjointScene()
	plan, err := PlanMultilayerCtx(context.Background(), spaces, terms, viaPitch, 4)
	if err != nil {
		t.Fatal(err)
	}
	availOf := map[int]geom.Region{}
	for _, ls := range spaces {
		availOf[ls.Layer] = ls.Avail
	}
	copperByLayer := map[int][]geom.Region{}
	for _, layer := range plan.LayersUsed() {
		results, err := RouteLayerCtx(context.Background(), availOf[layer], plan.PerLayer[layer], Config{DX: 5, DY: 5, AreaMax: 1200})
		if err != nil {
			t.Fatalf("layer %d route: %v", layer, err)
		}
		for _, r := range results {
			if !r.Shape.Subtract(availOf[layer]).Empty() {
				t.Fatalf("layer %d copper escaped the available space", layer)
			}
			copperByLayer[layer] = append(copperByLayer[layer], r.Shape.Components()...)
		}
	}

	// Connectivity audit over {terminals} ∪ {copper components} ∪ {vias}.
	type ent struct {
		layer int // 0 for vias (they span layers)
		name  string
	}
	parent := map[ent]ent{}
	var find func(ent) ent
	find = func(e ent) ent {
		p, ok := parent[e]
		if !ok || p == e {
			parent[e] = e
			return e
		}
		root := find(p)
		parent[e] = root
		return root
	}
	join := func(a, b ent) { parent[find(a)] = find(b) }

	compEnt := func(layer, i int) ent { return ent{layer, "comp" + string(rune('0'+i))} }
	for layer, comps := range copperByLayer {
		for i, comp := range comps {
			for _, term := range terms {
				if term.Layer == layer && comp.Overlaps(term.Shape) {
					join(compEnt(layer, i), ent{0, term.Name})
				}
			}
		}
	}
	for vi, v := range plan.Vias {
		// The planner lands each via on a pad of half-width pitch/4.
		land := geom.RegionFromRect(geom.RectAround(v.At, viaPitch/4))
		ve := ent{0, "via" + string(rune('0'+vi))}
		for _, layer := range []int{v.FromLayer, v.ToLayer} {
			for i, comp := range copperByLayer[layer] {
				if comp.Overlaps(land) {
					join(ve, compEnt(layer, i))
				}
			}
			for _, term := range terms {
				if term.Layer == layer && land.Overlaps(term.Shape) {
					join(ve, ent{0, term.Name})
				}
			}
		}
	}
	if find(ent{0, "S"}) != find(ent{0, "T"}) {
		t.Fatal("S and T are not electrically connected through copper and vias")
	}
}

func TestPlanMultilayerTerminalsOnDifferentLayers(t *testing.T) {
	// PMIC on bottom layer, BGA on top (the structure of the paper's case
	// studies): the plan must bridge the layers.
	l1 := geom.RegionFromRect(geom.R(0, 0, 80, 40))
	l2 := geom.RegionFromRect(geom.R(0, 0, 80, 40))
	spaces := []LayerSpace{{Layer: 1, Avail: l1}, {Layer: 2, Avail: l2}}
	terms := []MLTerminal{
		{Name: "BGA", Layer: 1, Shape: geom.RegionFromRect(geom.R(0, 15, 5, 25))},
		{Name: "PMIC", Layer: 2, Shape: geom.RegionFromRect(geom.R(75, 15, 80, 25))},
	}
	plan, err := PlanMultilayerCtx(context.Background(), spaces, terms, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Vias) == 0 {
		t.Fatal("cross-layer terminals require a via")
	}
}

func TestPlanMultilayerErrors(t *testing.T) {
	l1 := geom.RegionFromRect(geom.R(0, 0, 50, 50))
	spaces := []LayerSpace{{Layer: 1, Avail: l1}}
	pad := geom.RegionFromRect(geom.R(0, 0, 5, 5))
	terms := []MLTerminal{
		{Name: "S", Layer: 1, Shape: pad},
		{Name: "T", Layer: 1, Shape: geom.RegionFromRect(geom.R(45, 45, 50, 50))},
	}
	if _, err := PlanMultilayerCtx(context.Background(), nil, terms, 10, 4); err == nil {
		t.Fatal("no spaces must error")
	}
	if _, err := PlanMultilayerCtx(context.Background(), spaces, terms[:1], 10, 4); err == nil {
		t.Fatal("one terminal must error")
	}
	if _, err := PlanMultilayerCtx(context.Background(), spaces, terms, 0, 4); err == nil {
		t.Fatal("bad pitch must error")
	}
	dup := []LayerSpace{{Layer: 1, Avail: l1}, {Layer: 1, Avail: l1}}
	if _, err := PlanMultilayerCtx(context.Background(), dup, terms, 10, 4); err == nil {
		t.Fatal("duplicate layer must error")
	}
	badTerm := []MLTerminal{terms[0], {Name: "X", Layer: 9, Shape: pad}}
	if _, err := PlanMultilayerCtx(context.Background(), spaces, badTerm, 10, 4); err == nil {
		t.Fatal("terminal on unknown layer must error")
	}
	// Unreachable: two islands on a single layer with no second layer.
	split := geom.RegionFromRect(geom.R(0, 0, 50, 50)).
		Subtract(geom.RegionFromRect(geom.R(20, 0, 30, 50)))
	if _, err := PlanMultilayerCtx(context.Background(), []LayerSpace{{Layer: 1, Avail: split}}, terms, 10, 4); err == nil {
		t.Fatal("unreachable terminals must error")
	}
}

func TestPlanMultilayerViaCostTradeoff(t *testing.T) {
	// A shortcut through layer 2 exists (wall on layer 1 forces a long
	// detour), but with a huge via cost the plan must stay on layer 1;
	// with a tiny via cost it must tunnel.
	l1 := geom.RegionFromRect(geom.R(0, 0, 100, 100)).
		Subtract(geom.RegionFromRect(geom.R(45, 0, 55, 90))) // wall with gap at top
	l2 := geom.RegionFromRect(geom.R(0, 0, 100, 100))
	spaces := []LayerSpace{{Layer: 1, Avail: l1}, {Layer: 2, Avail: l2}}
	terms := []MLTerminal{
		{Name: "S", Layer: 1, Shape: geom.RegionFromRect(geom.R(0, 0, 5, 10))},
		{Name: "T", Layer: 1, Shape: geom.RegionFromRect(geom.R(95, 0, 100, 10))},
	}
	expensive, err := PlanMultilayerCtx(context.Background(), spaces, terms, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(expensive.Vias) != 0 {
		t.Fatalf("expensive vias must force the detour, got %d vias", len(expensive.Vias))
	}
	cheap, err := PlanMultilayerCtx(context.Background(), spaces, terms, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cheap.Vias) == 0 {
		t.Fatal("cheap vias must tunnel through layer 2")
	}
}
