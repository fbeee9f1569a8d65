// Decap planning: route a rail, extract its parasitics, then let the
// greedy planner pick the smallest decap set that brings the impedance
// profile under a target mask — the selection problem of the paper's
// references [2], [15], [16], closed into SPROUT's exploration loop.
//
// Run with: go run ./examples/decapplan
package main

import (
	"fmt"
	"log"
	"os"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/ckt"
	"sprout/internal/decap"
	"sprout/internal/geom"
	"sprout/internal/report"
)

func main() {
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1-pwr", CopperUM: 35, DielectricBelowUM: 120},
		{Name: "L2-gnd", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := sprout.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := sprout.NewBoard("decap-plan", geom.R(0, 0, 220, 80), stack, rules)
	if err != nil {
		log.Fatal(err)
	}
	vdd := b.AddNet("VDD", 2, 5)
	must(b.AddGroup(sprout.TerminalGroup{
		Name: "pmic", Kind: board.KindPMIC, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(4, 30, 14, 50))},
	}))
	must(b.AddGroup(sprout.TerminalGroup{
		Name: "bga", Kind: board.KindBGA, Net: vdd, Layer: 1, Current: 2,
		Pads: []geom.Region{geom.RegionFromRect(geom.R(206, 30, 216, 50))},
	}))

	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:    1,
		Budgets:  map[sprout.NetID]int64{vdd: 3500},
		Config:   sprout.RouteConfig{DX: 5, DY: 5},
		FailFast: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	rail := res.Rails[0]
	fmt.Printf("rail parasitics: R = %.3f mΩ, L = %.0f pH\n",
		rail.Extract.ResistanceOhms*1e3, rail.Extract.InductancePH)

	// Target: 12 mΩ floor to 1 MHz, relaxing 20 dB/decade above.
	mask := ckt.TargetMask{
		{FreqHz: 1e4, LimitOhms: 0.012},
		{FreqHz: 1e6, LimitOhms: 0.012},
		{FreqHz: 1e8, LimitOhms: 1.2},
	}
	plan, err := decap.Plan(rail.Extract.ResistanceOhms, rail.Extract.InductancePH*1e-12,
		decap.StandardKit(), mask, decap.Options{})
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("selected decaps", "kind", "count")
	for _, cand := range decap.StandardKit() {
		if n := plan.Counts[cand.Name]; n > 0 {
			t.AddRow(cand.Name, n)
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	verdict := "PASS"
	if !plan.Report.Pass {
		verdict = "FAIL"
	}
	peak, freq := plan.Profile.PeakOhms()
	fmt.Printf("\nmask check: %s (worst ratio %.2f at %.2g Hz; profile peak %.1f mΩ at %.2g Hz)\n",
		verdict, plan.Report.WorstRatio, plan.Report.WorstFreqHz, peak*1e3, freq)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
