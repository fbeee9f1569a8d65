package sprout_test

import (
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/geom"
)

// orderBoard builds a board where routing order matters: two nets compete
// for a narrow channel; whichever routes first takes the short path.
func orderBoard(t *testing.T) *sprout.Board {
	t.Helper()
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("order", geom.R(0, 0, 200, 120), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	// A wall with a single 30-wide channel in the middle.
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(90, 0, 110, 45))); err != nil {
		t.Fatal(err)
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(90, 75, 110, 120))); err != nil {
		t.Fatal(err)
	}
	// Net A: heavy current, crossing left-to-right.
	a := b.AddNet("A", 5, 5)
	// Net B: light current, also crossing.
	bb := b.AddNet("B", 1, 5)
	addPair := func(net sprout.NetID, y int64) {
		if err := b.AddGroup(sprout.TerminalGroup{
			Name: "s", Kind: board.KindPMIC, Net: net, Layer: 1, Current: 1,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(2, y, 10, y+12))},
		}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddGroup(sprout.TerminalGroup{
			Name: "t", Kind: board.KindBGA, Net: net, Layer: 1, Current: 1,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(190, y, 198, y+12))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	addPair(a, 48)
	addPair(bb, 62)
	return b
}

func TestExploreNetOrders(t *testing.T) {
	b := orderBoard(t)
	opt := sprout.RouteOptions{
		Layer: 1,
		Budgets: map[sprout.NetID]int64{
			0: 2200,
			1: 2200,
		},
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	}
	ex, err := sprout.ExploreNetOrders(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Tried < 1 || ex.Tried > 2 {
		t.Fatalf("tried = %d, want 1-2 permutations of 2 nets", ex.Tried)
	}
	if ex.Best == nil || len(ex.BestOrder) != 2 {
		t.Fatalf("exploration incomplete: %+v", ex)
	}
	if ex.BestScore <= 0 {
		t.Fatalf("score = %g", ex.BestScore)
	}
	// The winner must be no worse than routing in plain id order, when
	// that order succeeds at all.
	plain, err := sprout.RouteBoard(b, opt)
	if err == nil {
		var plainScore float64
		for _, rail := range plain.Rails {
			net, _ := b.Net(rail.Net)
			plainScore += net.Current * rail.Extract.ResistanceOhms
		}
		if ex.BestScore > plainScore+1e-12 {
			t.Fatalf("exploration worse than default order: %g vs %g", ex.BestScore, plainScore)
		}
	}
}

func TestRouteBoardCustomOrder(t *testing.T) {
	b := orderBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{0: 2200, 1: 2200},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
		Order:   []sprout.NetID{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rails[0].Name != "B" || res.Rails[1].Name != "A" {
		t.Fatalf("custom order not honored: %s, %s", res.Rails[0].Name, res.Rails[1].Name)
	}
	// Repeated or unknown ids must be rejected.
	if _, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer: 1, Order: []sprout.NetID{0, 0},
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	}); err == nil {
		t.Fatal("repeated net in Order must error")
	}
	if _, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer: 1, Order: []sprout.NetID{9},
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	}); err == nil {
		t.Fatal("unknown net in Order must error")
	}
}

func TestExploreNetOrdersOnTwoRailCase(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sprout.ExploreNetOrders(cs.Board, sprout.RouteOptions{
		Layer:   cs.RoutingLayer,
		Budgets: cs.Budgets,
		Config:  cs.Config,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Tried != 2 {
		t.Fatalf("two nets should try 2 orders, tried %d", ex.Tried)
	}
}
