package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"sprout"
)

// resistanceRelTol is the relative tolerance on a rail's extracted
// resistance against its pin. Areas, node counts and best orders are
// decisions and must match exactly.
const resistanceRelTol = 1e-6

// pinRail is one rail's pinned outcome. Its JSON keys match the golden
// corpus in testdata/golden, so a golden file can serve as a pin.
type pinRail struct {
	Name           string  `json:"name"`
	AreaUnits      int64   `json:"area_units"`
	RouteNodes     int     `json:"route_nodes"`
	ResistanceOhms float64 `json:"resistance_ohms"`
}

// pin is the expected outcome of one input variant.
type pin struct {
	Input     string    `json:"input"`
	BestOrder []string  `json:"best_order,omitempty"`
	Rails     []pinRail `json:"rails"`
}

// pinFile holds a workload's pins, in perfbench/expected/<workload>.json.
type pinFile struct {
	Workload string `json:"workload"`
	Pins     []pin  `json:"pins"`
}

// pinSource says where a workload's pins come from: its own file, plus
// optionally a golden corpus file that pins one input.
type pinSource struct {
	workload string
	// golden is a testdata/golden file relative to the repository root,
	// and goldenInput the input it pins ("" when there is none).
	golden, goldenInput string
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "perfbench", "expected", workload+".json")
}

// load reads the pins for every input in inputs.
func (ps pinSource) load(root string, inputs []string) (map[string]pin, error) {
	pins := map[string]pin{}
	data, err := os.ReadFile(expectedPath(root, ps.workload))
	if err != nil {
		return nil, fmt.Errorf("read pins: %w", err)
	}
	var f pinFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decode pins of %s: %w", ps.workload, err)
	}
	for _, p := range f.Pins {
		pins[p.Input] = p
	}
	if ps.golden != "" {
		data, err := os.ReadFile(filepath.Join(root, ps.golden))
		if err != nil {
			return nil, fmt.Errorf("read golden pin: %w", err)
		}
		var g struct {
			Rails []pinRail `json:"rails"`
		}
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("decode %s: %w", ps.golden, err)
		}
		pins[ps.goldenInput] = pin{Input: ps.goldenInput, Rails: g.Rails}
	}
	for _, in := range inputs {
		if _, ok := pins[in]; !ok {
			return nil, fmt.Errorf("%s: no pinned outcome for input %s (regenerate with: go test -run TestUpdatePins -update)", ps.workload, in)
		}
	}
	return pins, nil
}

// pinOf folds a routed board into its pin form.
func pinOf(input string, bestOrder []string, rails []sprout.RailResult) pin {
	p := pin{Input: input, BestOrder: bestOrder}
	for _, r := range rails {
		pr := pinRail{Name: r.Name}
		if r.Route != nil {
			pr.AreaUnits = r.Route.Shape.Area()
			for _, m := range r.Route.Members {
				if m {
					pr.RouteNodes++
				}
			}
		}
		if r.Extract != nil {
			pr.ResistanceOhms = r.Extract.ResistanceOhms
		}
		p.Rails = append(p.Rails, pr)
	}
	return p
}

// match reports the first way got departs from the pin.
func (want pin) match(got pin) error {
	if !slices.Equal(want.BestOrder, got.BestOrder) {
		return fmt.Errorf("%s: best order %v, pinned %v", want.Input, got.BestOrder, want.BestOrder)
	}
	if len(got.Rails) != len(want.Rails) {
		return fmt.Errorf("%s: %d rails, pinned %d", want.Input, len(got.Rails), len(want.Rails))
	}
	for i, w := range want.Rails {
		g := got.Rails[i]
		if g.Name != w.Name || g.AreaUnits != w.AreaUnits || g.RouteNodes != w.RouteNodes {
			return fmt.Errorf("%s: rail %d is %s with area %d and %d nodes, pinned %s with area %d and %d nodes",
				want.Input, i, g.Name, g.AreaUnits, g.RouteNodes, w.Name, w.AreaUnits, w.RouteNodes)
		}
		if rel := math.Abs(g.ResistanceOhms-w.ResistanceOhms) / w.ResistanceOhms; !(rel <= resistanceRelTol) {
			return fmt.Errorf("%s: rail %s resistance %g ohm, pinned %g (relative error %g > %g)",
				want.Input, w.Name, g.ResistanceOhms, w.ResistanceOhms, rel, resistanceRelTol)
		}
	}
	return nil
}
