// Quickstart: define a small two-layer board with one rail, synthesize the
// power shape with SPROUT, extract its impedance, and render the layout.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/geom"
	"sprout/internal/svgout"
)

func main() {
	// A 20 x 10 mm board section: routing layer over a ground plane.
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1-pwr", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2-gnd", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("quickstart", geom.R(0, 0, 200, 100), stack, rules)
	if err != nil {
		log.Fatal(err)
	}

	// One rail: PMIC on the left, a 2x2 BGA via cluster on the right,
	// and a keepout in the middle the route must avoid.
	vdd := b.AddNet("VDD", 3 /* amps */, 5 /* ns slew */)
	must(b.AddGroup(sprout.TerminalGroup{
		Name: "pmic", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 3,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(6, 42, 18, 58))},
	}))
	must(b.AddGroup(sprout.TerminalGroup{
		Name: "bga", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 3,
		Pads: []geom.Region{
			geom.RegionFromRect(geom.R(178, 40, 186, 48)),
			geom.RegionFromRect(geom.R(190, 40, 198, 48)),
			geom.RegionFromRect(geom.R(178, 52, 186, 60)),
			geom.RegionFromRect(geom.R(190, 52, 198, 60)),
		},
	}))
	must(b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(90, 20, 115, 75))))

	// Synthesize with a 30 mm² copper budget and extract the impedance.
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:    1,
		Budgets:  map[sprout.NetID]int64{vdd: 3000},
		Config:   sprout.RouteConfig{DX: 5, DY: 5, ReheatDilations: 1},
		FailFast: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	rail := res.Rails[0]
	fmt.Printf("rail %s: %d units² of copper\n", rail.Name, rail.Route.Shape.Area())
	fmt.Printf("  DC resistance: %.3f mΩ\n", rail.Extract.ResistanceOhms*1e3)
	fmt.Printf("  loop inductance @ 25 MHz: %.1f pH\n", rail.Extract.InductancePH)
	fmt.Printf("  pipeline: seed %.3g → final %.3g sheet-squares over %d iterations\n",
		rail.Route.Trace[0].Resistance, rail.Route.Resistance, len(rail.Route.Trace))

	// System-level view: minimum load voltage with and without an on-board
	// decap — the fast load ramp through the rail inductance needs one.
	net, _ := b.Net(vdd)
	bare, err := sprout.AnalyzeRail(rail.Extract, net, 1.0, nil)
	if err != nil {
		log.Fatal(err)
	}
	decap, err := sprout.AnalyzeRail(rail.Extract, net, 1.0, []sprout.Decap{sprout.DefaultDecap()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  min load voltage: %.4f V bare → %.4f V with one 10 µF decap\n",
		bare.MinLoadVoltage, decap.MinLoadVoltage)
	fmt.Printf("  normalized delay at the decap-protected voltage: %.4f\n", decap.DelayNorm)

	// Render the synthesized layout.
	c := svgout.New(b.Outline)
	c.Rect(b.Outline, svgout.Style{Fill: "#f8f8f4", Stroke: "#333", StrokeWidth: 1})
	c.Region(b.Obstacle[0].Shape, svgout.Style{Fill: "#444", Hatch: true})
	c.Region(rail.Route.Shape, svgout.Style{Fill: "#c02020", Opacity: 0.85})
	for _, g := range b.Groups {
		c.Region(g.Shape(), svgout.Style{Stroke: "#000", StrokeWidth: 0.6})
	}
	if err := c.WriteFile("quickstart.svg"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart.svg")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
