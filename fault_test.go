package sprout_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/sparse"
)

// twoRailBoard builds a healthy board with two independently routable
// rails side by side.
func twoRailBoard(t *testing.T) (*sprout.Board, []sprout.NetID) {
	t.Helper()
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("fault2", geom.R(0, 0, 200, 100), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	var ids []sprout.NetID
	for i, y := range []int64{20, 70} {
		net := b.AddNet([]string{"VDD", "VIO"}[i], 2, 5)
		ids = append(ids, net)
		if err := b.AddGroup(sprout.TerminalGroup{
			Name: "pmic" + b.Nets[i].Name, Kind: board.KindPMIC, Net: net, Layer: 1, Current: 2,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(4, y, 12, y+10))},
		}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddGroup(sprout.TerminalGroup{
			Name: "bga" + b.Nets[i].Name, Kind: board.KindBGA, Net: net, Layer: 1, Current: 2,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(180, y, 188, y+10))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b, ids
}

// walledBoard builds a board where net "STRANDED" has its terminals on
// opposite sides of a full-height obstacle wall (unroutable), while net
// "OK" routes entirely left of the wall.
func walledBoard(t *testing.T) (*sprout.Board, sprout.NetID, sprout.NetID) {
	t.Helper()
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("walled", geom.R(0, 0, 200, 100), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(90, 0, 110, 100))); err != nil {
		t.Fatal(err)
	}
	// The stranded net comes first in id order, proving a failure does not
	// abort the rails after it.
	stranded := b.AddNet("STRANDED", 2, 5)
	ok := b.AddNet("OK", 2, 5)
	add := func(name string, kind board.TerminalKind, net sprout.NetID, r geom.Rect) {
		t.Helper()
		if err := b.AddGroup(sprout.TerminalGroup{
			Name: name, Kind: kind, Net: net, Layer: 1, Current: 2,
			Pads: []geom.Region{geom.RegionFromRect(r)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("spmic", board.KindPMIC, stranded, geom.R(4, 70, 12, 80))
	add("sbga", board.KindBGA, stranded, geom.R(180, 70, 188, 80))
	add("opmic", board.KindPMIC, ok, geom.R(4, 10, 12, 20))
	add("obga", board.KindBGA, ok, geom.R(60, 10, 68, 20))
	return b, stranded, ok
}

func TestRouteBoardCancelledMidGrow(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	b, ids := twoRailBoard(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from inside the second SmartGrow iteration of the first rail;
	// the board run must abort with ctx.Err() within one iteration.
	faultinject.Arm(faultinject.SiteGrow, 2, func() error {
		cancel()
		return nil
	})
	res, err := sprout.RouteBoardCtx(ctx, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
		Config:  sprout.RouteConfig{DX: 5, DY: 5, GrowNodes: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("cancelled board must not return a result")
	}
	if calls := faultinject.Calls(faultinject.SiteGrow); calls > 3 {
		t.Fatalf("grow ran %d iterations after cancellation, want prompt abort", calls)
	}
}

func TestRouteBoardIsolatesUnroutableRail(t *testing.T) {
	b, stranded, ok := walledBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:  1,
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatalf("board with one unroutable rail must still succeed: %v", err)
	}
	if len(res.Rails) != 2 {
		t.Fatalf("rails = %d, want both recorded", len(res.Rails))
	}
	byNet := map[sprout.NetID]sprout.RailResult{}
	for _, rail := range res.Rails {
		byNet[rail.Net] = rail
	}
	srail := byNet[stranded]
	if !srail.Diag.Failed() {
		t.Fatal("stranded rail must record its failure")
	}
	if srail.Route != nil {
		t.Fatal("stranded terminals cannot even seed; Route must be nil")
	}
	orail := byNet[ok]
	if orail.Diag.Failed() {
		t.Fatalf("healthy rail polluted by neighbour failure: %v", orail.Diag.Err)
	}
	if orail.Route == nil || orail.Extract == nil {
		t.Fatal("healthy rail must still be routed and extracted")
	}
	if got := res.FailedRails(); len(got) != 1 || got[0].Net != stranded {
		t.Fatalf("FailedRails = %+v, want just the stranded rail", got)
	}
}

func TestRouteBoardFailFastAborts(t *testing.T) {
	b, _, _ := walledBoard(t)
	_, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:    1,
		Config:   sprout.RouteConfig{DX: 5, DY: 5},
		FailFast: true,
	})
	if err == nil {
		t.Fatal("FailFast must abort on the unroutable rail")
	}
	if !strings.Contains(err.Error(), "STRANDED") {
		t.Fatalf("error should name the failing net: %v", err)
	}
}

func TestRouteBoardDegradesToSeedOnly(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	b, ids := twoRailBoard(t)

	// Every SmartGrow iteration fails: the full pipeline cannot run, but
	// each rail must degrade to its seed-only route (paper Alg. 2) rather
	// than abort the board.
	growErr := errors.New("injected grow failure")
	faultinject.Arm(faultinject.SiteGrow, 0, func() error { return growErr })
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatalf("degraded board must still succeed: %v", err)
	}
	if len(res.Rails) != 2 {
		t.Fatalf("rails = %d, want 2", len(res.Rails))
	}
	for _, rail := range res.Rails {
		if !rail.Diag.Degraded {
			t.Fatalf("rail %s should be degraded", rail.Name)
		}
		if !errors.Is(rail.Diag.Err, growErr) {
			t.Fatalf("rail %s Diag.Err = %v, want the injected failure", rail.Name, rail.Diag.Err)
		}
		if rail.Route == nil || rail.Route.Shape.Empty() {
			t.Fatalf("rail %s must carry its seed-only route", rail.Name)
		}
		if rail.Extract == nil {
			t.Fatalf("rail %s seed shape should still extract", rail.Name)
		}
		if !rail.Route.Graph.TerminalsConnected(rail.Route.Members) {
			t.Fatalf("rail %s degraded route must connect its terminals", rail.Name)
		}
	}
}

// TestRouteBoardExtractFaultPolicy pins the rail-fault policy for the
// stages after routing: an extraction failure on the first rail's SPROUT
// shape (extraction call 1) or manual shape (call 2) aborts the board
// with a *RailError under FailFast, and otherwise joins the rail's Diag
// while every other rail still routes and extracts.
func TestRouteBoardExtractFaultPolicy(t *testing.T) {
	injected := errors.New("injected extract failure")
	for _, tc := range []struct {
		at       int
		stage    string
		failFast bool
	}{
		{1, "extract", true},
		{1, "extract", false},
		{2, "extract manual", true},
		{2, "extract manual", false},
	} {
		faultinject.Reset()
		b, ids := twoRailBoard(t)
		faultinject.Arm(faultinject.SiteExtract, tc.at, func() error { return injected })
		res, err := sprout.RouteBoard(b, sprout.RouteOptions{
			Layer:      1,
			Budgets:    map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
			Config:     sprout.RouteConfig{DX: 5, DY: 5},
			WithManual: true,
			FailFast:   tc.failFast,
		})
		faultinject.Reset()
		name := fmt.Sprintf("%s/failFast=%v", tc.stage, tc.failFast)
		failed := err
		if !tc.failFast {
			if err != nil {
				t.Fatalf("%s: isolated extraction failure aborted the board: %v", name, err)
			}
			failed = nil
			for _, rail := range res.Rails {
				switch {
				case rail.Net == ids[0]:
					failed = rail.Diag.Err
					if (tc.stage == "extract") != (rail.Extract == nil) ||
						(tc.stage == "extract manual") != (rail.ManualExtract == nil) {
						t.Fatalf("%s: only the failed stage's report may be missing: %+v %+v",
							name, rail.Extract, rail.ManualExtract)
					}
				case rail.Diag.Failed() || rail.Route == nil || rail.Extract == nil ||
					rail.Manual == nil || rail.ManualExtract == nil:
					t.Fatalf("%s: rail %s did not route cleanly: %v", name, rail.Name, rail.Diag.Err)
				}
			}
		}
		var re *sprout.RailError
		if !errors.As(failed, &re) || re.Net != ids[0] || re.Stage != tc.stage || !errors.Is(re, injected) {
			t.Fatalf("%s: failure %v, want a *RailError for the first rail at stage %q", name, failed, tc.stage)
		}
		if want := "sprout: " + tc.stage + " net VDD: extract: " + injected.Error(); re.Error() != want {
			t.Fatalf("%s: message %q, want %q", name, re.Error(), want)
		}
	}
}

func TestRouteBoardRecoversViaSolverLadder(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	b, ids := twoRailBoard(t)

	// The very first CG solve reports non-convergence; the solver ladder
	// must recover (relaxed retry) and the board must route cleanly with
	// no per-rail failures.
	faultinject.Arm(faultinject.SiteCG, 1, func() error { return sparse.ErrNoConvergence })
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 1500, ids[1]: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatalf("ladder should have absorbed the failed solve: %v", err)
	}
	if calls := faultinject.Calls(faultinject.SiteCG); calls < 2 {
		t.Fatalf("expected a fallback CG attempt, saw %d calls", calls)
	}
	for _, rail := range res.Rails {
		if rail.Diag.Failed() {
			t.Fatalf("rail %s recorded a failure despite ladder recovery: %v", rail.Name, rail.Diag.Err)
		}
		if rail.Route == nil || rail.Extract == nil {
			t.Fatalf("rail %s incomplete", rail.Name)
		}
	}
}

func TestRouteBoardDeadline(t *testing.T) {
	b, ids := twoRailBoard(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err := sprout.RouteBoardCtx(ctx, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 1500, ids[1]: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestRouteBoardPanicRecovered(t *testing.T) {
	_, err := sprout.RouteBoard(nil, sprout.RouteOptions{Layer: 1})
	if err == nil {
		t.Fatal("nil board must surface an error, not crash")
	}
	var pe *sprout.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError must capture the stack")
	}
}

func TestExploreNetOrdersCollectsFailures(t *testing.T) {
	b, _, _ := walledBoard(t)
	out, err := sprout.ExploreNetOrders(b, sprout.RouteOptions{
		Layer:  1,
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err == nil {
		t.Fatal("all orders strand the walled net; want an error")
	}
	if strings.Contains(err.Error(), "no routable nets") {
		t.Fatalf("error must describe the order failures, got: %v", err)
	}
	if out == nil {
		t.Fatal("exploration result must carry the per-order diagnostics")
	}
	if len(out.Failed) != 2 {
		t.Fatalf("Failed = %d orders, want both permutations", len(out.Failed))
	}
	for _, f := range out.Failed {
		if f.Err == nil || len(f.Order) != 2 {
			t.Fatalf("malformed order error: %+v", f)
		}
		if !strings.Contains(f.Err.Error(), "STRANDED") {
			t.Fatalf("order error should blame the stranded net: %v", f.Err)
		}
	}
}

func TestExploreNetOrdersCancelled(t *testing.T) {
	b, ids := twoRailBoard(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sprout.ExploreNetOrdersCtx(ctx, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 1500, ids[1]: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRouteBoardMultilayerCancelled(t *testing.T) {
	b, ids := twoRailBoard(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sprout.RouteBoardMultilayerCtx(ctx, b, sprout.MLRouteOptions{
		Budgets: map[sprout.NetID]int64{ids[0]: 1500, ids[1]: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
