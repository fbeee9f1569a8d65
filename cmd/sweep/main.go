// Command sweep explores the area/impedance trade-off of the three-rail
// exploration board over a custom area schedule — the prototyping flow of
// the paper's Fig. 2: generate a prototype per parameter set, extract its
// impedance, and compare. The default schedule is the paper's Table IV.
//
// Usage:
//
//	sweep [-steps n] [-min f] [-max f] [-explore] [-explore-workers n]
//
// -min and -max scale the modem/CPU normalized area (DSP uses a quarter of
// the schedule, as in Table IV). With -explore each layout additionally
// sweeps the net routing order over the shared permutation tree and keeps
// the best order (lowest current-weighted resistance); -explore-workers
// bounds the explorer pool.
package main

import (
	"flag"
	"fmt"
	"os"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/report"
)

func main() {
	steps := flag.Int("steps", 9, "number of layouts to generate")
	minA := flag.Float64("min", 15, "minimum modem/CPU area (normalized units)")
	maxA := flag.Float64("max", 35, "maximum modem/CPU area (normalized units)")
	explore := flag.Bool("explore", false, "sweep net routing orders per layout and keep the best")
	exploreWorkers := flag.Int("explore-workers", 0, "explorer worker-pool bound (0 = GOMAXPROCS)")
	flag.Parse()

	opt := exploreOpts{on: *explore, workers: *exploreWorkers}
	if err := run(*steps, *minA, *maxA, opt); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// exploreOpts bundles the order-exploration flags.
type exploreOpts struct {
	on      bool
	workers int
}

func run(steps int, minA, maxA float64, ex exploreOpts) error {
	if steps < 2 {
		return fmt.Errorf("need at least 2 steps, got %d", steps)
	}
	if minA <= 0 || maxA <= minA {
		return fmt.Errorf("bad range [%g, %g]", minA, maxA)
	}
	t := report.NewTable("area/impedance exploration (three-rail board)",
		"layout", "area", "rail", "copper units²", "R (mΩ)", "L (pH)", "eff L (pH)", "Vmin (V)", "delay")
	for i := 0; i < steps; i++ {
		frac := float64(i) / float64(steps-1)
		area := minA + (maxA-minA)*frac
		row := cases.AreaRow{Layout: i + 1, Modem: area, CPU: area, DSP: area / 4}
		cs, err := cases.ThreeRail(row)
		if err != nil {
			return err
		}
		ropt := sprout.RouteOptions{
			Layer:    cs.RoutingLayer,
			Budgets:  cs.Budgets,
			Config:   cs.Config,
			FailFast: true,
		}
		var res *sprout.BoardResult
		if ex.on {
			ropt.ExploreWorkers = ex.workers
			exp, err := sprout.ExploreNetOrders(cs.Board, ropt)
			if err != nil {
				return fmt.Errorf("layout %d: %w", i+1, err)
			}
			fmt.Printf("layout %d: best order %v (score %.6g, %d/%d orders ok, prefix cache %d hit / %d miss)\n",
				i+1, exp.BestOrder, exp.BestScore, exp.Tried, exp.Stats.Orders,
				exp.Stats.PrefixHits, exp.Stats.PrefixMisses)
			res = exp.Best
		} else {
			var err error
			res, err = sprout.RouteBoard(cs.Board, ropt)
			if err != nil {
				return fmt.Errorf("layout %d: %w", i+1, err)
			}
		}
		for _, rail := range res.Rails {
			net, err := cs.Board.Net(rail.Net)
			if err != nil {
				return err
			}
			an, err := sprout.AnalyzeRail(rail.Extract, net, cs.VSupply, cs.Decaps[rail.Net])
			if err != nil {
				return err
			}
			t.AddRow(i+1, area, rail.Name, rail.Route.Shape.Area(),
				rail.Extract.ResistanceOhms*1e3, rail.Extract.InductancePH,
				an.EffLInductPH, an.MinLoadVoltage, an.DelayNorm)
		}
	}
	return t.Render(os.Stdout)
}
