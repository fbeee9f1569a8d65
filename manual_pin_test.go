package sprout_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
)

// manualGoldenRail pins one rail's manual-designer baseline: its copper
// area, an FNV-64a hash of the shape's canonical band listing, and the
// extracted impedance of that shape. The corridor width is left out: the
// copper it draws is what the tables compare.
type manualGoldenRail struct {
	Name           string  `json:"name"`
	AreaUnits      int64   `json:"area_units"`
	ShapeHash      string  `json:"shape_hash"`
	ResistanceOhms float64 `json:"resistance_ohms"`
	InductancePH   float64 `json:"inductance_ph"`
}

type manualGoldenRun struct {
	Case  string             `json:"case"`
	Order []string           `json:"order"`
	Rails []manualGoldenRail `json:"rails"`
}

// manualRun routes the case in the given order with the manual
// baseline and folds every rail's baseline into its golden form.
func manualRun(t *testing.T, name string, cs *cases.CaseStudy, order []board.NetID) manualGoldenRun {
	t.Helper()
	res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
		Layer:      cs.RoutingLayer,
		Budgets:    cs.Budgets,
		Config:     cs.Config,
		Order:      order,
		WithManual: true,
		FailFast:   true,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run := manualGoldenRun{Case: name}
	for _, rail := range res.Rails {
		run.Order = append(run.Order, rail.Name)
		if rail.Manual == nil || rail.ManualExtract == nil {
			t.Fatalf("%s rail %s: no manual baseline", name, rail.Name)
		}
		h := fnv.New64a()
		_, _ = h.Write([]byte(rail.Manual.Shape.String()))
		run.Rails = append(run.Rails, manualGoldenRail{
			Name:           rail.Name,
			AreaUnits:      rail.Manual.Shape.Area(),
			ShapeHash:      fmt.Sprintf("%016x", h.Sum64()),
			ResistanceOhms: rail.ManualExtract.ResistanceOhms,
			InductancePH:   rail.ManualExtract.InductancePH,
		})
	}
	return run
}

// TestManualBaselinePinned pins the manual baseline of paper Tables II and
// III bit for bit: the two-rail board in net id order, and the six-rail
// board in every rotation of its net order, so each of the six rails is
// routed first (on the unclaimed board) once and later on claimed copper.
// Comparison is exact; re-pin deliberately with
//
//	go test -run TestManualBaselinePinned -update .
func TestManualBaselinePinned(t *testing.T) {
	var got []manualGoldenRun
	two, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, manualRun(t, "tworail", two, nil))
	six, err := cases.SixRail()
	if err != nil {
		t.Fatal(err)
	}
	nets := six.Board.Nets
	for r := range nets {
		order := make([]board.NetID, 0, len(nets))
		for i := range nets {
			order = append(order, nets[(r+i)%len(nets)].ID)
		}
		got = append(got, manualRun(t, fmt.Sprintf("sixrail/rotation%d", r), six, order))
	}

	path := filepath.Join("testdata", "golden", "manual.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
		t.Fatalf("missing golden %s (generate with: go test -run TestManualBaselinePinned -update .): %v", path, err)
	}
	var want []manualGoldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Case != w.Case || fmt.Sprint(g.Order) != fmt.Sprint(w.Order) || len(g.Rails) != len(w.Rails) {
			t.Errorf("run %d: got %s order %v with %d rails, golden has %s order %v with %d rails",
				i, g.Case, g.Order, len(g.Rails), w.Case, w.Order, len(w.Rails))
			continue
		}
		for k := range w.Rails {
			if g.Rails[k] != w.Rails[k] {
				t.Errorf("%s rail %q: manual baseline diverged from golden:\n  got  %+v\n  want %+v",
					w.Case, w.Rails[k].Name, g.Rails[k], w.Rails[k])
			}
		}
	}
}
