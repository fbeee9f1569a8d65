package cases_test

import (
	"context"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/geom"
	"sprout/internal/route"
)

func TestTwoRailBoardWellFormed(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	b := cs.Board
	if got := len(b.Nets); got != 2 {
		t.Fatalf("nets = %d, want 2", got)
	}
	if b.Stackup.NumLayers() != 8 {
		t.Fatalf("layers = %d, want 8", b.Stackup.NumLayers())
	}
	planes := 0
	for i := 1; i <= 8; i++ {
		if b.Stackup.Layer(i).IsPlane {
			planes++
		}
	}
	if planes != 3 {
		t.Fatalf("ground planes = %d, want 3 (layers 2, 6, 8)", planes)
	}
	// Each net: PMIC + BGA groups on the routing layer.
	for _, net := range b.Nets {
		groups := b.GroupsOn(net.ID, cs.RoutingLayer)
		if len(groups) != 2 {
			t.Fatalf("net %s groups = %d, want 2", net.Name, len(groups))
		}
	}
	// Available space must be connected for each net (single-layer route).
	for _, net := range b.Nets {
		avail := b.AvailableSpace(net.ID, cs.RoutingLayer)
		comps := avail.Components()
		main := comps[0]
		for _, c := range comps[1:] {
			if c.Area() > main.Area() {
				main = c
			}
		}
		for _, g := range b.GroupsOn(net.ID, cs.RoutingLayer) {
			if !main.Overlaps(g.Shape()) {
				t.Fatalf("net %s group %s outside the main component", net.Name, g.Name)
			}
		}
	}
}

func TestSixRailBoardWellFormed(t *testing.T) {
	cs, err := cases.SixRail()
	if err != nil {
		t.Fatal(err)
	}
	b := cs.Board
	if got := len(b.Nets); got != 7 { // 6 power + GND
		t.Fatalf("nets = %d, want 7", got)
	}
	// 306 ground vias as obstacles.
	gndVias := 0
	for _, o := range b.Obstacle {
		if o.Net != board.NetNone {
			gndVias++
		}
	}
	if gndVias != 306 {
		t.Fatalf("ground vias = %d, want 306", gndVias)
	}
	// 51 BGA vias per power net plus one PMIC via.
	power := 0
	for _, net := range b.Nets {
		if net.Name == "GND" {
			continue
		}
		power++
		var bga, pmic int
		for _, g := range b.GroupsOn(net.ID, cs.RoutingLayer) {
			switch g.Kind {
			case board.KindBGA:
				bga += len(g.Pads)
			case board.KindPMIC:
				pmic++
			}
		}
		if bga != 51 {
			t.Fatalf("net %s BGA vias = %d, want 51", net.Name, bga)
		}
		if pmic != 1 {
			t.Fatalf("net %s PMICs = %d, want 1", net.Name, pmic)
		}
	}
	if power != 6 {
		t.Fatalf("power nets = %d, want 6", power)
	}
}

func TestThreeRailBoardWellFormed(t *testing.T) {
	row := cases.Table4()[2] // layout 3: 20/20/3.75
	cs, err := cases.ThreeRail(row)
	if err != nil {
		t.Fatal(err)
	}
	b := cs.Board
	// 86 BGA vias total: 24 modem + 36 cpu + 8 dsp + 18 ground.
	bga := 0
	for _, g := range b.Groups {
		if g.Kind == board.KindBGA {
			bga += len(g.Pads)
		}
	}
	gnd := 0
	for _, o := range b.Obstacle {
		if o.Net != board.NetNone {
			gnd++
		}
	}
	if bga+gnd != 86 {
		t.Fatalf("BGA total = %d (power %d + gnd %d), want 86", bga+gnd, bga, gnd)
	}
	// Decaps: 2 modem + 5 cpu lands.
	decapPads := map[string]int{}
	for _, g := range b.Groups {
		if g.Kind == board.KindDecap {
			name, _ := b.Net(g.Net)
			decapPads[name.Name] += len(g.Pads)
		}
	}
	if decapPads["MODEM"] != 2 || decapPads["CPU"] != 5 {
		t.Fatalf("decap lands = %+v, want MODEM:2 CPU:5", decapPads)
	}
	// Budgets follow the Table IV row.
	wantModem := int64(row.Modem * cases.UnitArea)
	if cs.Budgets[0] != wantModem {
		t.Fatalf("modem budget = %d, want %d", cs.Budgets[0], wantModem)
	}
}

func TestTable4Progression(t *testing.T) {
	rows := cases.Table4()
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if rows[0].Modem != 15 || rows[0].CPU != 15 || rows[0].DSP != 2.5 {
		t.Fatalf("row 1 = %+v", rows[0])
	}
	if rows[8].Modem != 35 || rows[8].CPU != 35 || rows[8].DSP != 7.5 {
		t.Fatalf("row 9 = %+v", rows[8])
	}
	for i := 1; i < 9; i++ {
		if rows[i].Modem <= rows[i-1].Modem || rows[i].DSP <= rows[i-1].DSP {
			t.Fatalf("areas must increase monotonically: %+v", rows)
		}
	}
}

func TestFig8SceneRoutes(t *testing.T) {
	avail, terms := cases.Fig8Scene()
	res, err := route.RouteCtx(context.Background(), avail, terms, route.Config{DX: 4, DY: 4, AreaMax: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		if !res.Shape.Overlaps(term.Shape) {
			t.Fatalf("copper misses terminal %s", term.Name)
		}
	}
	// The blockage must stay clear.
	if res.Shape.Overlaps(geom.RegionFromRect(geom.R(50, 28, 74, 54))) {
		t.Fatal("copper entered the blockage")
	}
}

// TestTwoRailEndToEnd routes the full Fig. 9 case including the manual
// baseline — the Table II experiment at test scale.
func TestTwoRailEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end case study")
	}
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
		Layer:      cs.RoutingLayer,
		Budgets:    cs.Budgets,
		Config:     cs.Config,
		WithManual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != 2 {
		t.Fatalf("rails routed = %d, want 2", len(res.Rails))
	}
	var copper []geom.Region
	for _, rail := range res.Rails {
		if rail.Extract == nil || rail.ManualExtract == nil {
			t.Fatalf("rail %s missing extraction", rail.Name)
		}
		if rail.Extract.ResistanceOhms <= 0 || rail.Extract.InductancePH <= 0 {
			t.Fatalf("rail %s bad impedance %+v", rail.Name, rail.Extract)
		}
		// Paper Table II: SPROUT tracks manual closely. Allow a wide
		// envelope at test scale.
		ratio := rail.Extract.ResistanceOhms / rail.ManualExtract.ResistanceOhms
		if ratio > 1.6 || ratio < 0.4 {
			t.Fatalf("rail %s SPROUT/manual R ratio = %g", rail.Name, ratio)
		}
		// Area budget respected (one tile tolerance).
		tile := cs.Config.DX * cs.Config.DY
		if got := rail.Route.Shape.Area(); got > cs.Budgets[rail.Net]+tile*int64(cs.Config.GrowNodes) {
			t.Fatalf("rail %s area %d exceeds budget %d", rail.Name, got, cs.Budgets[rail.Net])
		}
		copper = append(copper, rail.Route.Shape)
	}
	// Rails must not short.
	if copper[0].Overlaps(copper[1]) {
		t.Fatal("rails short together")
	}
	// Rails must respect mutual clearance.
	if copper[0].Bloat(cs.Board.Rules.Clearance).Overlaps(copper[1]) {
		t.Fatal("rails violate clearance")
	}
}

// TestSixRailEndToEnd routes the full Fig. 10 congested board with the
// manual baseline — the Table III experiment at test scale.
func TestSixRailEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end case study")
	}
	cs, err := cases.SixRail()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
		Layer:      cs.RoutingLayer,
		Budgets:    cs.Budgets,
		Config:     cs.Config,
		WithManual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != 6 {
		t.Fatalf("rails routed = %d, want 6", len(res.Rails))
	}
	var copper []geom.Region
	sproutBetter := 0
	for _, rail := range res.Rails {
		ratio := rail.Extract.ResistanceOhms / rail.ManualExtract.ResistanceOhms
		if ratio <= 1 {
			sproutBetter++
		}
		if ratio > 1.6 || ratio < 0.3 {
			t.Fatalf("rail %s SPROUT/manual R ratio = %g out of envelope", rail.Name, ratio)
		}
		copper = append(copper, rail.Route.Shape)
	}
	// Paper Table III: SPROUT loop inductance is 1-4% *smaller* than
	// manual; at reproduction scale require SPROUT to win on at least a
	// couple of rails.
	if sproutBetter < 2 {
		t.Fatalf("SPROUT better on only %d/6 rails", sproutBetter)
	}
	// No two rails may short or violate clearance.
	for i := 0; i < len(copper); i++ {
		for j := i + 1; j < len(copper); j++ {
			if copper[i].Bloat(cs.Board.Rules.Clearance).Overlaps(copper[j]) {
				t.Fatalf("rails %d and %d violate clearance", i, j)
			}
		}
	}
	// Copper must dodge every ground via obstacle.
	for _, o := range cs.Board.Obstacle {
		for i, c := range copper {
			if c.Overlaps(o.Shape) {
				t.Fatalf("rail %d copper crosses a ground via at %v", i, o.Shape.Bounds())
			}
		}
	}
	// The full design-rule audit must be clean on the congested board.
	if vs := sprout.Audit(res, sprout.DRCLimits{}); len(vs) != 0 {
		t.Fatalf("six-rail board must pass DRC, got %v", vs)
	}
}

// TestThreeRailLayoutRoutes routes one Table IV layout end to end.
func TestThreeRailLayoutRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end case study")
	}
	cs, err := cases.ThreeRail(cases.Table4()[4]) // layout 5 (middle)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
		Layer:   cs.RoutingLayer,
		Budgets: cs.Budgets,
		Config:  cs.Config,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != 3 {
		t.Fatalf("rails = %d, want 3", len(res.Rails))
	}
	for _, rail := range res.Rails {
		net, _ := cs.Board.Net(rail.Net)
		an, err := sprout.AnalyzeRail(rail.Extract, net, cs.VSupply, cs.Decaps[rail.Net])
		if err != nil {
			t.Fatalf("rail %s: %v", rail.Name, err)
		}
		if an.MinLoadVoltage <= 0.5 || an.MinLoadVoltage >= cs.VSupply {
			t.Fatalf("rail %s min voltage %g implausible", rail.Name, an.MinLoadVoltage)
		}
		if an.DelayNorm < 1 {
			t.Fatalf("rail %s delay %g must be >= nominal", rail.Name, an.DelayNorm)
		}
	}
}
