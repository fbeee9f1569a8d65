// Impedance profile vs. target (the paper's Fig. 1 sign-off criterion):
// synthesize a rail at two different area budgets, sweep Z(f) for each,
// and check both against a target impedance mask. The bigger budget
// passes where the smaller one fails — exactly the exploration answer
// SPROUT exists to provide before layout starts.
//
// Run with: go run ./examples/impedance
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
		{Name: "L1-pwr", CopperUM: 18, DielectricBelowUM: 120},
		{Name: "L2-gnd", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("impedance-demo", geom.R(0, 0, 260, 100), stack, rules)
	if err != nil {
		return nil, 0, err
	}
	vdd := b.AddNet("VDD", 3, 5)
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "pmic", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 3,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(4, 40, 16, 60))},
	}); err != nil {
		return nil, 0, err
	}
	if err := b.AddGroup(sprout.TerminalGroup{
		Name: "bga", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 3,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(244, 40, 256, 60))},
	}); err != nil {
		return nil, 0, err
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(100, 30, 150, 100))); err != nil {
		return nil, 0, err
	}
	return b, vdd, nil
}

func main() {
	b, vdd, err := buildBoard()
	if err != nil {
		log.Fatal(err)
	}
	net, _ := b.Net(vdd)
	decaps := []sprout.Decap{
		sprout.DefaultDecap(), sprout.DefaultDecap(),
		sprout.DefaultDecap(), sprout.DefaultDecap(),
	}

	// Target: 1 V rail, 2.5% ripple at 3 A -> 8.3 mΩ, held flat to 2 MHz
	// where the board-level PDN hands over to the package; above that the
	// limit relaxes at the usual 20 dB/decade.
	mask := sprout.TargetMask{
		{FreqHz: 1e4, LimitOhms: 0.0083},
		{FreqHz: 2e6, LimitOhms: 0.0083},
		{FreqHz: 1e8, LimitOhms: 0.42},
	}

	t := report.NewTable("impedance sign-off across area budgets (target 8.3 mΩ to 2 MHz)",
		"budget", "R (mΩ)", "L (pH)", "peak |Z| (mΩ)", "at (MHz)", "worst ratio", "verdict")
	for _, budget := range []int64{2200, 9000} {
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
		profile, err := sprout.RailProfile(rail.Extract, net, decaps, 1e4, 1e8, 16)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := mask.Check(profile)
		if err != nil {
			log.Fatal(err)
		}
		peak, freq := profile.PeakOhms()
		verdict := "PASS"
		if !rep.Pass {
			verdict = "FAIL"
		}
		t.AddRow(budget,
			rail.Extract.ResistanceOhms*1e3, rail.Extract.InductancePH,
			peak*1e3, freq/1e6, rep.WorstRatio, verdict)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthe skinny prototype violates the target mask; the wide one clears it —")
	fmt.Println("answered in milliseconds, before any layout is drawn (paper Fig. 1 vs Fig. 2).")
}
