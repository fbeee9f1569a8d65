package sprout_test

import (
	"fmt"
	"strings"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/geom"
)

// mlBoard builds a board whose routing layer is split by a keepout so the
// net must tunnel through the second routable layer.
func mlBoard(t *testing.T) (*sprout.Board, sprout.NetID) {
	t.Helper()
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L3-gnd", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 6}
	b, err := sprout.NewBoard("ml", geom.R(0, 0, 160, 60), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.AddNet("VDD", 2, 5)
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "S", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(4, 24, 12, 36))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "T", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(148, 24, 156, 36))},
	}); err != nil {
		t.Fatal(err)
	}
	// Full-height wall on layer 1 only.
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(72, 0, 88, 60))); err != nil {
		t.Fatal(err)
	}
	return b, vdd
}

func TestRouteBoardMultilayer(t *testing.T) {
	b, vdd := mlBoard(t)
	res, err := sprout.RouteBoardMultilayer(b, sprout.MLRouteOptions{
		Budgets: map[sprout.NetID]int64{vdd: 1200},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != 1 {
		t.Fatalf("nets = %d", len(res.Nets))
	}
	nr := res.Nets[0]
	if len(nr.Vias) < 2 {
		t.Fatalf("vias = %d, want >= 2 (descend and ascend)", len(nr.Vias))
	}
	if nr.Copper[1].Empty() || nr.Copper[2].Empty() {
		t.Fatalf("copper must exist on both layers: %v", nr.Copper)
	}
	// Layer-1 copper must dodge the wall.
	wall := geom.RegionFromRect(geom.R(72, 0, 88, 60))
	if nr.Copper[1].Overlaps(wall) {
		t.Fatal("layer-1 copper crosses the wall")
	}
	// Copper stays inside each layer's available space.
	for layer, c := range nr.Copper {
		if !c.Subtract(b.AvailableSpace(vdd, layer)).Empty() {
			t.Fatalf("layer %d copper escaped its space", layer)
		}
	}
}

func TestRouteBoardMultilayerSingleLayerFallback(t *testing.T) {
	// Without the wall everything stays on layer 1 with zero vias.
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 6}
	b, err := sprout.NewBoard("flat", geom.R(0, 0, 120, 40), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.AddNet("VDD", 1, 5)
	for _, g := range []sprout.TerminalGroup{
		{Name: "S", Net: vdd, Layer: 1, Current: 1,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(2, 14, 10, 26))}},
		{Name: "T", Net: vdd, Layer: 1, Current: 1,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(110, 14, 118, 26))}},
	} {
		if err := b.AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sprout.RouteBoardMultilayer(b, sprout.MLRouteOptions{
		Budgets: map[sprout.NetID]int64{vdd: 900},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Nets[0]
	if len(nr.Vias) != 0 {
		t.Fatalf("open board must need no vias, got %d", len(nr.Vias))
	}
	if nr.Copper[2].Area() != 0 {
		t.Fatal("layer 2 must stay empty")
	}
}

func TestRouteBoardMultilayerValidation(t *testing.T) {
	b, _ := mlBoard(t)
	if _, err := sprout.RouteBoardMultilayer(b, sprout.MLRouteOptions{Layers: []int{9}}); err == nil {
		t.Fatal("bad layer must error")
	}
	if _, err := sprout.RouteBoardMultilayer(b, sprout.MLRouteOptions{Layers: []int{3}}); err == nil {
		t.Fatal("plane layer must error")
	}
	empty, err := sprout.NewBoard("e", geom.R(0, 0, 50, 50), sprout.Stackup{
		Layers: []sprout.Layer{{Name: "L1", CopperUM: 35}},
	}, sprout.DesignRules{Clearance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sprout.RouteBoardMultilayer(empty, sprout.MLRouteOptions{}); err == nil {
		t.Fatal("no nets must error")
	}
}

// TestRouteBoardMultilayerLayersOption: the facade reads the caller's
// Layers without reordering them, and rejects a repeated layer in its
// up-front check instead of deep inside a net's plan.
func TestRouteBoardMultilayerLayersOption(t *testing.T) {
	b, vdd := mlBoard(t)
	layers := []int{2, 1}
	if _, err := sprout.RouteBoardMultilayer(b, sprout.MLRouteOptions{
		Layers:  layers,
		Budgets: map[sprout.NetID]int64{vdd: 1200},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(layers) != "[2 1]" {
		t.Fatalf("caller's Layers reordered to %v", layers)
	}
	_, err := sprout.RouteBoardMultilayer(b, sprout.MLRouteOptions{Layers: []int{1, 1}})
	if err == nil {
		t.Fatal("duplicate layers must error")
	}
	if strings.Contains(err.Error(), "plan") {
		t.Fatalf("duplicate layers reached the planner: %v", err)
	}
}
