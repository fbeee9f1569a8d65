package drc

import (
	"strings"
	"testing"

	"sprout/internal/board"
	"sprout/internal/geom"
	"sprout/internal/route"
)

func term(name string, r geom.Rect) route.Terminal {
	return route.Terminal{Name: name, Shape: geom.RegionFromRect(r), Current: 1}
}

func cleanShape() Shape {
	return Shape{
		Net:    "VDD",
		Copper: geom.RegionFromRect(geom.R(0, 0, 100, 20)),
		Terminals: []route.Terminal{
			term("S", geom.R(0, 5, 5, 15)),
			term("T", geom.R(95, 5, 100, 15)),
		},
		Budget: 2100,
	}
}

func TestAuditCleanLayout(t *testing.T) {
	s := cleanShape()
	avail := map[string]geom.Region{"VDD": geom.RegionFromRect(geom.R(0, 0, 200, 100))}
	vs := Audit([]Shape{s}, avail, geom.EmptyRegion(), Limits{Clearance: 2, MinWidth: 4, BudgetSlack: 0})
	if len(vs) != 0 {
		t.Fatalf("clean layout produced violations: %v", vs)
	}
}

func TestAuditEmptyCopper(t *testing.T) {
	vs := Audit([]Shape{{Net: "VDD"}}, nil, geom.EmptyRegion(), Limits{})
	if len(vs) != 1 || vs[0].Rule != "empty" || vs[0].Severity != Error {
		t.Fatalf("violations = %v", vs)
	}
}

func TestAuditContainment(t *testing.T) {
	s := cleanShape()
	avail := map[string]geom.Region{"VDD": geom.RegionFromRect(geom.R(0, 0, 90, 100))}
	vs := Audit([]Shape{s}, avail, geom.EmptyRegion(), Limits{Clearance: 2})
	found := false
	for _, v := range vs {
		if v.Rule == "containment" && v.Severity == Error {
			found = true
			if v.Where.X0 < 90 {
				t.Fatalf("escape localized wrong: %v", v.Where)
			}
		}
	}
	if !found {
		t.Fatalf("containment violation missing: %v", vs)
	}
}

func TestAuditBlockageOverlap(t *testing.T) {
	s := cleanShape()
	blockage := geom.RegionFromRect(geom.R(40, 0, 60, 10))
	vs := Audit([]Shape{s}, nil, blockage, Limits{Clearance: 2})
	if len(vs) == 0 || vs[0].Rule != "blockage" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestAuditConnectivity(t *testing.T) {
	s := cleanShape()
	s.Copper = geom.RegionFromRects([]geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 20}, {X0: 60, Y0: 0, X1: 100, Y1: 20}})
	vs := Audit([]Shape{s}, nil, geom.EmptyRegion(), Limits{Clearance: 2})
	found := false
	for _, v := range vs {
		if v.Rule == "connectivity" && v.Severity == Error {
			found = true
		}
	}
	if !found {
		t.Fatalf("connectivity violation missing: %v", vs)
	}
}

func TestAuditClearance(t *testing.T) {
	a := cleanShape()
	b := Shape{
		Net:    "VSS",
		Copper: geom.RegionFromRect(geom.R(0, 21, 100, 40)), // only 1 unit away
	}
	vs := Audit([]Shape{a, b}, nil, geom.EmptyRegion(), Limits{Clearance: 2})
	if len(vs) == 0 || vs[0].Rule != "clearance" {
		t.Fatalf("violations = %v", vs)
	}
	// At 1-unit clearance requirement the same pair is legal.
	vs = Audit([]Shape{a, b}, nil, geom.EmptyRegion(), Limits{Clearance: 1})
	for _, v := range vs {
		if v.Rule == "clearance" {
			t.Fatalf("unexpected clearance violation: %v", v)
		}
	}
}

func TestAuditMinWidth(t *testing.T) {
	s := cleanShape()
	// A 2-wide neck at the T terminal.
	s.Copper = geom.RegionFromRects([]geom.Rect{
		{X0: 0, Y0: 0, X1: 60, Y1: 20},
		{X0: 60, Y0: 9, X1: 100, Y1: 11},
	})
	vs := Audit([]Shape{s}, nil, geom.EmptyRegion(), Limits{Clearance: 2, MinWidth: 6})
	found := false
	for _, v := range vs {
		if v.Rule == "min-width" {
			found = true
			if v.Severity != Warning {
				t.Fatalf("min-width should be a warning: %v", v)
			}
			if !strings.Contains(v.Msg, "T") {
				t.Fatalf("should name the starved terminal: %v", v)
			}
		}
	}
	if !found {
		t.Fatalf("min-width violation missing: %v", vs)
	}
}

func TestAuditBudgetAndDensity(t *testing.T) {
	s := cleanShape()
	s.Budget = 1500 // copper is 2000
	s.MaxCurrentDensity = 0.5
	vs := Audit([]Shape{s}, nil, geom.EmptyRegion(),
		Limits{Clearance: 2, BudgetSlack: 100, DensityLimit: 0.3})
	rules := map[string]bool{}
	for _, v := range vs {
		rules[v.Rule] = true
		if v.Severity != Warning {
			t.Fatalf("%s should be a warning", v.Rule)
		}
	}
	if !rules["budget"] || !rules["current-density"] {
		t.Fatalf("missing warnings: %v", vs)
	}
}

func TestAuditBoardWrapper(t *testing.T) {
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
	}}
	rules := board.DesignRules{Clearance: 2}
	b, err := board.New("audit", geom.R(0, 0, 100, 50), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	vdd := b.AddNet("VDD", 2, 5)
	if err := b.AddGroup(board.TerminalGroup{
		Name: "s", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(0, 20, 8, 30))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddGroup(board.TerminalGroup{
		Name: "t", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(92, 20, 100, 30))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(40, 40, 60, 50))); err != nil {
		t.Fatal(err)
	}
	// A clean routed strip.
	clean := map[string]RoutedNet{
		"VDD": {Copper: geom.RegionFromRect(geom.R(0, 18, 100, 32)), Budget: 1500},
	}
	if vs := AuditBoard(b, 1, clean, Limits{Clearance: 2, BudgetSlack: 25}); len(vs) != 0 {
		t.Fatalf("clean board audit found %v", vs)
	}
	// Copper crossing the keepout must be flagged: both as blockage
	// overlap and as a containment escape (the keepout is excluded from
	// the net's available space).
	dirty := map[string]RoutedNet{
		"VDD": {Copper: geom.RegionFromRect(geom.R(0, 18, 100, 45)), Budget: 5000},
	}
	vs := AuditBoard(b, 1, dirty, Limits{Clearance: 2})
	rules2 := map[string]bool{}
	for _, v := range vs {
		rules2[v.Rule] = true
	}
	if !rules2["blockage"] || !rules2["containment"] {
		t.Fatalf("expected blockage+containment findings, got %v", vs)
	}
	// A net name unknown to the board audits with no available-space rule.
	orphan := map[string]RoutedNet{
		"GHOST": {Copper: geom.RegionFromRect(geom.R(0, 0, 10, 10))},
	}
	if vs := AuditBoard(b, 1, orphan, Limits{Clearance: 2}); len(vs) != 0 {
		t.Fatalf("orphan net should only be geometry-checked: %v", vs)
	}
}

func TestAuditSortingAndErrors(t *testing.T) {
	a := cleanShape()
	a.Budget = 100 // warning
	b := Shape{Net: "AAA"}
	vs := Audit([]Shape{a, b}, nil, geom.EmptyRegion(), Limits{Clearance: 2})
	if len(vs) < 2 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Severity != Error {
		t.Fatal("errors must sort first")
	}
	errs := Errors(vs)
	for _, v := range errs {
		if v.Severity != Error {
			t.Fatal("Errors() must filter warnings")
		}
	}
	if len(errs) == 0 || len(errs) == len(vs) {
		t.Fatalf("filtering wrong: %d of %d", len(errs), len(vs))
	}
	if !strings.Contains(vs[0].String(), "ERROR") {
		t.Fatalf("violation string: %s", vs[0])
	}
}
