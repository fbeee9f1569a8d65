package sprout_test

// End-to-end golden regression corpus: the canonical case-study boards
// are routed with the default options and their per-rail copper area,
// node counts, and extracted impedance are pinned byte-for-byte against
// testdata/golden/. Any change to the pipeline's arithmetic — however
// plausible — must show up here and be re-pinned deliberately:
//
//	go test -run TestGolden -update .
//
// Comparison is exact (== on float64): encoding/json round-trips
// float64 losslessly, so the goldens pin bits, not approximations.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/route"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden corpus")

// goldenRail pins one rail's end-to-end outcome.
type goldenRail struct {
	Name string `json:"name"`
	// AreaUnits is the synthesized copper area in grid units².
	AreaUnits int64 `json:"area_units"`
	// RouteNodes counts the tile-graph nodes in the final member set.
	RouteNodes int `json:"route_nodes"`
	// ResistanceSquares is the route-stage weighted pairwise resistance
	// in sheet squares.
	ResistanceSquares float64 `json:"resistance_squares"`
	// ExtractNodes / ResistanceOhms / InductancePH pin the extraction
	// (absent for the fig8 scene, which is routed without a board).
	ExtractNodes   int     `json:"extract_nodes,omitempty"`
	ResistanceOhms float64 `json:"resistance_ohms,omitempty"`
	InductancePH   float64 `json:"inductance_ph,omitempty"`
}

type goldenCase struct {
	Case  string       `json:"case"`
	Rails []goldenRail `json:"rails"`
}

func memberCount(members []bool) int {
	n := 0
	for _, m := range members {
		if m {
			n++
		}
	}
	return n
}

func railGolden(rail sprout.RailResult) goldenRail {
	g := goldenRail{
		Name:              rail.Name,
		AreaUnits:         rail.Route.Shape.Area(),
		RouteNodes:        memberCount(rail.Route.Members),
		ResistanceSquares: rail.Route.Resistance,
	}
	if rail.Extract != nil {
		g.ExtractNodes = rail.Extract.Nodes
		g.ResistanceOhms = rail.Extract.ResistanceOhms
		g.InductancePH = rail.Extract.InductancePH
	}
	return g
}

// checkGolden compares got against testdata/golden/<name>.json, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got goldenCase) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with: go test -run TestGolden -update .): %v", path, err)
	}
	var want goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden %s: %v", path, err)
	}
	if len(got.Rails) != len(want.Rails) {
		t.Fatalf("%s: %d rails, golden has %d", name, len(got.Rails), len(want.Rails))
	}
	for i := range want.Rails {
		g, w := got.Rails[i], want.Rails[i]
		if g != w {
			t.Errorf("%s rail %q diverged from golden:\n  got  %+v\n  want %+v\n(if intentional, re-pin with: go test -run TestGolden -update .)",
				name, w.Name, g, w)
		}
	}
}

// goldenBoard routes a case study deterministically (default order,
// FailFast) and folds it into the golden form.
func goldenBoard(t *testing.T, name string, cs *cases.CaseStudy) {
	t.Helper()
	res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
		Layer:    cs.RoutingLayer,
		Budgets:  cs.Budgets,
		Config:   cs.Config,
		FailFast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCase{Case: name}
	for _, rail := range res.Rails {
		got.Rails = append(got.Rails, railGolden(rail))
	}
	checkGolden(t, name, got)
}

func TestGoldenTwoRail(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	goldenBoard(t, "tworail", cs)
}

func TestGoldenThreeRail(t *testing.T) {
	cs, err := cases.ThreeRail(cases.Table4()[0])
	if err != nil {
		t.Fatal(err)
	}
	goldenBoard(t, "threerail", cs)
}

func TestGoldenSixRail(t *testing.T) {
	cs, err := cases.SixRail()
	if err != nil {
		t.Fatal(err)
	}
	goldenBoard(t, "sixrail", cs)
}

// TestGoldenFig8 pins the paper's Fig. 8 demonstration scene, routed
// through the packaged pipeline (same config as the experiments command).
func TestGoldenFig8(t *testing.T) {
	avail, terms := cases.Fig8Scene()
	res, err := route.RouteCtx(context.Background(), avail, terms, route.Config{
		DX: 4, DY: 4, AreaMax: 4000,
		GrowNodes: 20, RefineNodes: 10, RefineIters: 10, ReheatDilations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCase{Case: "fig8", Rails: []goldenRail{{
		Name:              "fig8",
		AreaUnits:         res.Shape.Area(),
		RouteNodes:        memberCount(res.Members),
		ResistanceSquares: res.Resistance,
	}}}
	checkGolden(t, "fig8", got)
}

// TestGoldenExploreBest pins the explorer's winner on the order-sensitive
// two-rail case: the best order and its score are part of the
// determinism contract, so a change here means the explorer's selection
// changed, not just the pipeline arithmetic.
func TestGoldenExploreBest(t *testing.T) {
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
	got := goldenCase{Case: "tworail_explore"}
	for _, rail := range ex.Best.Rails {
		got.Rails = append(got.Rails, railGolden(rail))
	}
	// The best order rides along as a pseudo-rail so the winning sequence
	// itself is pinned.
	got.Rails = append(got.Rails, goldenRail{Name: fmt.Sprintf("best_order=%v", ex.BestOrder)})
	checkGolden(t, "tworail_explore", got)
}
