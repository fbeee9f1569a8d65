// Trade-off exploration (the paper's Fig. 2 flow): generate a power-network
// prototype for a range of metal-area budgets on one board, extract each,
// and print the area/impedance/voltage frontier. This is the design-space
// exploration SPROUT exists for — each point takes milliseconds instead of
// a manual layout iteration.
//
// Run with: go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"
	"os"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/geom"
	"sprout/internal/report"
)

func buildBoard() (*sprout.Board, sprout.NetID, error) {
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1-pwr", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2-gnd", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("tradeoff", geom.R(0, 0, 240, 120), stack, rules)
	if err != nil {
		return nil, 0, err
	}
	vdd := b.AddNet("VDD", 4, 4)
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "pmic", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 4,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(6, 50, 18, 70))},
	}); err != nil {
		return nil, 0, err
	}
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "bga", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 4,
		Pads: []geom.Region{
			geom.RegionFromRect(geom.R(215, 30, 223, 38)),
			geom.RegionFromRect(geom.R(227, 30, 235, 38)),
			geom.RegionFromRect(geom.R(215, 82, 223, 90)),
			geom.RegionFromRect(geom.R(227, 82, 235, 90)),
		},
	}); err != nil {
		return nil, 0, err
	}
	// Two keepouts force an interesting trade-off between directness and
	// metal width.
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(80, 0, 105, 70))); err != nil {
		return nil, 0, err
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(150, 50, 175, 120))); err != nil {
		return nil, 0, err
	}
	return b, vdd, nil
}

func main() {
	b, vdd, err := buildBoard()
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable("area/impedance/voltage frontier (one rail, Fig. 2 exploration loop)",
		"budget units²", "copper", "R (mΩ)", "L (pH)", "Vmin (V)", "delay", "power")
	net, _ := b.Net(vdd)
	for budget := int64(2500); budget <= 8500; budget += 1000 {
		res, err := sprout.RouteBoard(b, sprout.RouteOptions{
			Layer:    1,
			Budgets:  map[sprout.NetID]int64{vdd: budget},
			Config:   sprout.RouteConfig{DX: 5, DY: 5},
			FailFast: true,
		})
		if err != nil {
			log.Fatalf("budget %d: %v", budget, err)
		}
		rail := res.Rails[0]
		an, err := sprout.AnalyzeRail(rail.Extract, net, 1.0,
			[]sprout.Decap{sprout.DefaultDecap()})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(budget, rail.Route.Shape.Area(),
			rail.Extract.ResistanceOhms*1e3, rail.Extract.InductancePH,
			an.MinLoadVoltage, an.DelayNorm, an.PowerNorm)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\neach row is one SPROUT prototype; a manual layout iteration at each point")
	fmt.Println("would cost hours — this is the exploration loop of the paper's Fig. 2.")
}
