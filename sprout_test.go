package sprout_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/route"
)

func facadeBoard(t *testing.T) (*sprout.Board, sprout.NetID) {
	t.Helper()
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("facade", geom.R(0, 0, 120, 60), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.AddNet("VDD", 2, 5)
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "pmic", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(4, 25, 12, 35))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "bga", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(108, 25, 116, 35))},
	}); err != nil {
		t.Fatal(err)
	}
	return b, vdd
}

func TestRouteBoardFacade(t *testing.T) {
	b, vdd := facadeBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{vdd: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != 1 {
		t.Fatalf("rails = %d", len(res.Rails))
	}
	rail := res.Rails[0]
	if rail.Extract == nil || rail.Extract.ResistanceOhms <= 0 {
		t.Fatalf("extraction missing: %+v", rail.Extract)
	}
	if rail.Route.Shape.Area() > 1500+200 {
		t.Fatalf("area %d exceeds budget", rail.Route.Shape.Area())
	}
}

func TestRouteBoardValidation(t *testing.T) {
	b, _ := facadeBoard(t)
	if _, err := sprout.RouteBoard(b, sprout.RouteOptions{Layer: 0}); err == nil {
		t.Fatal("layer 0 must error")
	}
	if _, err := sprout.RouteBoard(b, sprout.RouteOptions{Layer: 2}); err == nil {
		t.Fatal("plane layer must error")
	}
	// A negative extraction pitch fails the run up front, not per rail.
	if _, err := sprout.RouteBoard(b, sprout.RouteOptions{Layer: 1, ExtractPitch: -1}); err == nil || !strings.Contains(err.Error(), "Pitch") {
		t.Fatalf("negative ExtractPitch: err = %v, want an error naming Pitch", err)
	}
	// A board whose nets have fewer than two groups on the layer.
	stack := sprout.Stackup{Layers: []sprout.Layer{{Name: "L1", CopperUM: 35}}}
	rules := sprout.DesignRules{Clearance: 1}
	empty, err := sprout.NewBoard("empty", geom.R(0, 0, 50, 50), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	empty.AddNet("VDD", 1, 1)
	if _, err := sprout.RouteBoard(empty, sprout.RouteOptions{Layer: 1}); err == nil {
		t.Fatal("no routable nets must error")
	}
}

func TestRouteBoardSkipExtract(t *testing.T) {
	b, vdd := facadeBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:       1,
		Budgets:     map[sprout.NetID]int64{vdd: 1500},
		Config:      sprout.RouteConfig{DX: 5, DY: 5},
		SkipExtract: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rails[0].Extract != nil {
		t.Fatal("SkipExtract must suppress extraction")
	}
}

func TestRouteBoardManualBaseline(t *testing.T) {
	b, vdd := facadeBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:      1,
		Budgets:    map[sprout.NetID]int64{vdd: 1500},
		Config:     sprout.RouteConfig{DX: 5, DY: 5},
		WithManual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rail := res.Rails[0]
	if rail.Manual == nil || rail.ManualExtract == nil {
		t.Fatal("manual baseline missing")
	}
	ratio := rail.Extract.ResistanceOhms / rail.ManualExtract.ResistanceOhms
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("SPROUT/manual ratio %g implausible on an open board", ratio)
	}
}

func TestAuditRoutedBoardClean(t *testing.T) {
	b, vdd := facadeBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{vdd: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := sprout.Audit(res, sprout.DRCLimits{}); len(vs) != 0 {
		t.Fatalf("routed board must pass DRC, got %v", vs)
	}
}

// TestAuditBoardResult audits a hand-built board result: a routed strip
// between the two pads is clean, and copper crossing the keepout is
// flagged both as a blockage overlap and as a containment escape (the
// keepout is excluded from the net's available space).
func TestAuditBoardResult(t *testing.T) {
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
	}}
	b, err := sprout.NewBoard("audit", geom.R(0, 0, 100, 50), stack, sprout.DesignRules{Clearance: 2})
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.AddNet("VDD", 2, 5)
	for _, g := range []sprout.TerminalGroup{
		{Name: "s", Kind: board.KindPMIC, Pads: []geom.Region{geom.RegionFromRect(geom.R(0, 20, 8, 30))}},
		{Name: "t", Kind: board.KindBGA, Pads: []geom.Region{geom.RegionFromRect(geom.R(92, 20, 100, 30))}},
	} {
		g.Net, g.Layer, g.Current = vdd, 1, 2
		if err := b.AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(40, 40, 60, 50))); err != nil {
		t.Fatal(err)
	}
	routed := func(copper geom.Rect, budget int64) *sprout.BoardResult {
		return &sprout.BoardResult{Board: b, Layer: 1, Rails: []sprout.RailResult{{
			Net: vdd, Name: "VDD", Budget: budget,
			Route: &route.Result{Shape: geom.RegionFromRect(copper), Graph: &route.TileGraph{DX: 5, DY: 5}},
		}}}
	}
	if vs := sprout.Audit(routed(geom.R(0, 18, 100, 32), 1500), sprout.DRCLimits{}); len(vs) != 0 {
		t.Fatalf("clean board audit found %v", vs)
	}
	vs := sprout.Audit(routed(geom.R(0, 18, 100, 45), 5000), sprout.DRCLimits{})
	rules := map[string]bool{}
	for _, v := range vs {
		rules[v.Rule] = true
	}
	if len(vs) != 2 || !rules["blockage"] || !rules["containment"] {
		t.Fatalf("expected blockage+containment findings, got %v", vs)
	}
}

// TestAuditSlackIsOneRoutedTile checks that Audit's default budget slack
// is one tile of the graph the rails were routed on: the two-rail case
// routes at Δx = Δy = 5, so a rail 26 to 99 units² over budget is
// flagged, and one exactly 25 over is not.
func TestAuditSlackIsOneRoutedTile(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
		Layer: cs.RoutingLayer, Budgets: cs.Budgets, Config: cs.Config,
	})
	if err != nil {
		t.Fatal(err)
	}
	rail := &res.Rails[0]
	if g := rail.Route.Graph; g.DX*g.DY != 25 {
		t.Fatalf("two-rail routes at %dx%d, want 5x5", g.DX, g.DY)
	}
	area := rail.Route.Shape.Area()
	budgetFindings := func(over int64) int {
		rail.Budget = area - over
		n := 0
		for _, v := range sprout.Audit(res, sprout.DRCLimits{}) {
			if v.Rule == "budget" && v.Net == rail.Name {
				n++
			}
		}
		return n
	}
	if n := budgetFindings(25); n != 0 {
		t.Fatalf("area one tile over budget: %d budget findings, want 0", n)
	}
	for _, over := range []int64{26, 50, 99} {
		if n := budgetFindings(over); n != 1 {
			t.Fatalf("area %d over budget: %d budget findings, want 1", over, n)
		}
	}
}

func TestRailDCAnalysis(t *testing.T) {
	b, vdd := facadeBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{vdd: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := sprout.RailDC(b, 1, res.Rails[0], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Operating.MaxDropV <= 0 {
		t.Fatalf("max drop = %g", dc.Operating.MaxDropV)
	}
	if dc.MinLoadVoltage >= 1 || dc.MinLoadVoltage <= 0.9 {
		t.Fatalf("min voltage = %g", dc.MinLoadVoltage)
	}
	if dc.Thermal.MaxRiseC <= 0 || dc.Thermal.MaxRiseC > 20 {
		t.Fatalf("thermal rise = %g K", dc.Thermal.MaxRiseC)
	}
	if dc.Operating.TotalPowerW <= 0 {
		t.Fatal("no ohmic power at the operating point")
	}
	// A net without a PMIC group cannot be analyzed.
	badRail := res.Rails[0]
	badRail.Net = sprout.NetID(99)
	if _, err := sprout.RailDC(b, 1, badRail, 1.0); err == nil {
		t.Fatal("unknown net must error")
	}
}

// TestRailDCCtxCancelled requires a cancelled context to abort the DC
// analysis with an error that wraps context.Canceled instead of returning
// a full result.
func TestRailDCCtxCancelled(t *testing.T) {
	b, vdd := facadeBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{vdd: 1500},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dc, err := sprout.RailDCCtx(ctx, b, 1, res.Rails[0], 1.0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RailDCCtx: result %v, error %v; want context.Canceled", dc != nil, err)
	}
}

func TestRailProfileAndMask(t *testing.T) {
	rep := &extract.Report{ResistanceOhms: 0.005, InductancePH: 800}
	net := sprout.Net{Name: "VDD", Current: 2, SlewTimeNS: 5}
	profile, err := sprout.RailProfile(rep, net, []sprout.Decap{sprout.DefaultDecap()}, 1e4, 1e8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) < 30 {
		t.Fatalf("profile points = %d", len(profile))
	}
	mask, err := sprout.TargetImpedance(1.0, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	repMask, err := mask.Check(profile)
	if err != nil {
		t.Fatal(err)
	}
	if repMask.WorstRatio <= 0 || repMask.WorstFreqHz <= 0 {
		t.Fatalf("mask report = %+v", repMask)
	}
	// Zero-current nets still sweep (defaults kick in).
	if _, err := sprout.RailProfile(rep, sprout.Net{Name: "idle"}, nil, 1e4, 1e6, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := sprout.RailProfile(nil, net, nil, 1e4, 1e6, 5); err == nil {
		t.Fatal("nil report must error")
	}
}

func TestAnalyzeRail(t *testing.T) {
	rep := &extract.Report{ResistanceOhms: 0.01, InductancePH: 500}
	net := sprout.Net{Name: "VDD", Current: 2, SlewTimeNS: 5}
	an, err := sprout.AnalyzeRail(rep, net, 1.0, []sprout.Decap{sprout.DefaultDecap()})
	if err != nil {
		t.Fatal(err)
	}
	if an.MinLoadVoltage <= 0.8 || an.MinLoadVoltage >= 1 {
		t.Fatalf("vmin = %g", an.MinLoadVoltage)
	}
	if an.DelayNorm < 1 || an.PowerNorm >= 1 {
		t.Fatalf("delay %g power %g", an.DelayNorm, an.PowerNorm)
	}
	if an.EffLInductPH <= 0 {
		t.Fatalf("effective L = %g", an.EffLInductPH)
	}
	if _, err := sprout.AnalyzeRail(nil, net, 1.0, nil); err == nil {
		t.Fatal("nil report must error")
	}
}
