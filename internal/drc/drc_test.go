package drc

import (
	"strings"
	"testing"

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
