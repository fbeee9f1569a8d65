// Command sprout synthesizes the power-network copper of a board: either
// one of the built-in case studies or a JSON board document (see
// internal/boardio for the schema). It prints a per-rail impedance report
// and optionally writes layout SVGs, the routed-board JSON, a Chrome
// trace-event file (-trace, loadable in Perfetto / chrome://tracing), and
// a machine-readable run report (-report).
//
// Usage:
//
//	sprout -case tworail|sixrail|threerail [-manual] [-out dir]
//	sprout -board my_board.json [-manual] [-out dir]
//	sprout -case tworail -trace trace.json -report report.json -v
//	sprout -case tworail -dump-board board.json   (export the case as JSON)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/boardio"
	"sprout/internal/cases"
	"sprout/internal/drc"
	"sprout/internal/extract"
	"sprout/internal/gerber"
	"sprout/internal/obs"
	"sprout/internal/report"
	"sprout/internal/svgout"
)

// cli bundles the run-wide observability state: the structured logger
// every message goes through (replacing ad-hoc stderr prints, so -v/-q
// filter consistently) and the tracer feeding -trace/-report.
type cli struct {
	log    *slog.Logger
	tracer *obs.Tracer
	trace  string // Chrome trace output path ("" = disabled)
	report string // run report output path ("" = disabled)
}

func main() {
	caseName := flag.String("case", "", "built-in case study: tworail, sixrail, threerail")
	boardPath := flag.String("board", "", "JSON board document to route")
	withManual := flag.Bool("manual", false, "also route the manual-designer baseline")
	outDir := flag.String("out", "", "directory for layout SVGs")
	dumpBoard := flag.String("dump-board", "", "write the selected case as a JSON board document and exit")
	runDRC := flag.Bool("drc", false, "audit the routed layout against the design rules")
	gerberPath := flag.String("gerber", "", "write the routed copper as an RS-274X Gerber layer file")
	multilayer := flag.Bool("multilayer", false, "route across all routable layers with via planning (Appendix Alg. 6)")
	timeout := flag.Duration("timeout", 0, "abort synthesis after this duration, e.g. 90s or 5m (0 = no limit)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run (open in Perfetto)")
	reportPath := flag.String("report", "", "write the machine-readable run report as JSON")
	verbose := flag.Bool("v", false, "verbose: log per-stage spans and debug detail")
	quiet := flag.Bool("q", false, "quiet: log errors only")
	flag.Parse()

	verbosity := obs.Normal
	switch {
	case *quiet:
		verbosity = obs.Quiet
	case *verbose:
		verbosity = obs.Verbose
	}
	c := &cli{
		log:    obs.NewLogger(os.Stderr, verbosity),
		trace:  *tracePath,
		report: *reportPath,
	}
	// A tracer is only worth its overhead when some sink consumes it: the
	// Chrome trace file, the report's metrics section, or -v span logs.
	if c.trace != "" || c.report != "" || *verbose {
		topts := []obs.Option{}
		if *verbose {
			topts = append(topts, obs.WithLogger(c.log))
		}
		c.tracer = obs.New(topts...)
	}

	// SIGINT/SIGTERM cancel the context instead of killing the process:
	// an interrupted run unwinds through the normal error path, so the
	// -trace file is still flushed (a trace of an interrupted run is the
	// most useful kind) and deferred cleanups run instead of dying
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = obs.WithTracer(ctx, c.tracer)
	err := run(ctx, c, *caseName, *boardPath, *withManual, *outDir, *dumpBoard, *runDRC, *gerberPath, *multilayer)
	if werr := c.writeTrace(); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		switch {
		case errors.Is(ctx.Err(), context.Canceled):
			c.log.Error("interrupted by signal", "err", err)
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			c.log.Error("timed out", "after", *timeout, "err", err)
		default:
			c.log.Error("run failed", "err", err)
		}
		os.Exit(1)
	}
}

// writeTrace flushes the Chrome trace file, if one was requested. It runs
// even when the run failed: a trace of a failed run is the most useful
// kind.
func (c *cli) writeTrace() error {
	if c.trace == "" || c.tracer == nil {
		return nil
	}
	if err := c.tracer.WriteChromeTraceFile(c.trace); err != nil {
		return err
	}
	c.log.Info("wrote trace", "path", c.trace)
	return nil
}

// writeReport writes the machine-readable run report, if requested.
func (c *cli) writeReport(rep *obs.RunReport) error {
	if c.report == "" {
		return nil
	}
	if rep == nil {
		return fmt.Errorf("no run report produced")
	}
	if err := rep.WriteJSONFile(c.report); err != nil {
		return err
	}
	c.log.Info("wrote report", "path", c.report)
	return nil
}

func run(ctx context.Context, c *cli, caseName, boardPath string, withManual bool, outDir, dumpBoard string, runDRC bool, gerberPath string, multilayer bool) error {
	var (
		dec *boardio.Decoded
		err error
	)
	switch {
	case caseName != "" && boardPath != "":
		return fmt.Errorf("use either -case or -board, not both")
	case caseName != "":
		dec, err = loadCase(caseName)
	case boardPath != "":
		var f *os.File
		if f, err = os.Open(boardPath); err != nil {
			return err
		}
		defer f.Close()
		dec, err = boardio.Decode(f)
	default:
		return fmt.Errorf("select a board with -case or -board")
	}
	if err != nil {
		return err
	}
	b, layer := dec.Board, dec.RoutingLayer

	if dumpBoard != "" {
		f, err := os.Create(dumpBoard)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := boardio.Encode(f, dec); err != nil {
			return err
		}
		c.log.Info("wrote board document", "path", dumpBoard)
		return nil
	}

	if multilayer {
		return runMultilayer(ctx, c, dec, outDir)
	}

	start := time.Now()
	res, err := sprout.RouteBoardCtx(ctx, b, sprout.RouteOptions{
		Layer:      layer,
		Budgets:    dec.Budgets,
		Config:     dec.Config,
		WithManual: withManual,
	})
	if err != nil {
		return err
	}
	for _, rail := range res.FailedRails() {
		state := "failed (no route)"
		if rail.Diag.Degraded {
			state = "degraded to seed-only route"
		}
		c.log.Warn("rail did not fully route", "rail", rail.Name, "state", state, "err", rail.Diag.Err)
	}
	for _, rail := range res.Rails {
		if rail.Solve.Escalated() {
			c.log.Info("solver escalated past its primary rung",
				"rail", rail.Name,
				"escalations", rail.Solve.Escalations,
				"solves", rail.Solve.Solves,
				"worst_residual", rail.Solve.WorstResidual)
		}
	}

	cols := []string{"Net", "budget", "area", "R (mΩ)", "L @25MHz (pH)", "max J (A/unit)"}
	if withManual {
		cols = append(cols, "manual R (mΩ)", "manual L (pH)")
	}
	t := report.NewTable(fmt.Sprintf("%s — layer %d — synthesized in %v",
		b.Name, layer, time.Since(start).Round(time.Millisecond)), cols...)
	for _, rail := range res.Rails {
		// Degraded or failed rails may lack a route or an extraction.
		row := []interface{}{rail.Name, rail.Budget}
		if rail.Route != nil {
			row = append(row, rail.Route.Shape.Area())
		} else {
			row = append(row, "-")
		}
		if rail.Extract != nil {
			row = append(row,
				rail.Extract.ResistanceOhms*1e3,
				rail.Extract.InductancePH,
				rail.Extract.MaxCurrentDensity)
		} else {
			row = append(row, "-", "-", "-")
		}
		if withManual {
			if rail.ManualExtract != nil {
				row = append(row, rail.ManualExtract.ResistanceOhms*1e3, rail.ManualExtract.InductancePH)
			} else {
				row = append(row, "-", "-")
			}
		}
		t.AddRow(row...)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if err := c.writeReport(res.Report); err != nil {
		return err
	}

	if runDRC {
		violations := sprout.Audit(res, sprout.DRCLimits{MinWidth: dec.Config.DX})
		if len(violations) == 0 {
			fmt.Println("\nDRC: clean")
		} else {
			fmt.Printf("\nDRC: %d finding(s)\n", len(violations))
			for _, v := range violations {
				fmt.Println(" ", v)
			}
			if len(drc.Errors(violations)) > 0 {
				return fmt.Errorf("DRC errors present")
			}
		}
	}

	if gerberPath != "" {
		f, err := os.Create(gerberPath)
		if err != nil {
			return err
		}
		var nets []gerber.NetCopper
		for _, rail := range res.Rails {
			if rail.Route == nil {
				continue
			}
			nets = append(nets, gerber.NetCopper{Name: rail.Name, Copper: rail.Route.Shape})
		}
		layerName := fmt.Sprintf("%s-L%d", b.Name, layer)
		if err := gerber.Write(f, layerName, nets, gerber.Options{
			Comment:   "synthesized by sprout",
			Timestamp: time.Now(),
		}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		c.log.Info("wrote gerber", "path", gerberPath)
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := renderLayout(res, filepath.Join(outDir, "layout.svg")); err != nil {
			return err
		}
		c.log.Info("wrote layout", "path", filepath.Join(outDir, "layout.svg"))
	}
	return nil
}

// runMultilayer routes every net across all routable layers and reports
// per-layer copper, placed vias, and the via parasitic estimates.
func runMultilayer(ctx context.Context, c *cli, dec *boardio.Decoded, outDir string) error {
	start := time.Now()
	b := dec.Board
	res, err := sprout.RouteBoardMultilayerCtx(ctx, b, sprout.MLRouteOptions{
		Budgets: dec.Budgets,
		Config:  dec.Config,
	})
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("%s — multilayer — synthesized in %v",
		b.Name, time.Since(start).Round(time.Millisecond)),
		"Net", "vias", "layer", "copper units²", "R per via (mΩ)", "L per via (pH)")
	// One barrel's parasitics: a net's vias need not share its current,
	// so no via count divides them.
	spec := extract.ViaSpec{DrillUM: 200, PlatingUM: 25, LengthUM: totalSpanUM(b)}
	barrelR, barrelL := "-", "-"
	if r, err := spec.ResistanceOhms(); err == nil {
		barrelR = fmt.Sprintf("%.3g", r*1e3)
	}
	if l, err := spec.InductancePH(); err == nil {
		barrelL = fmt.Sprintf("%.3g", l)
	}
	for _, nr := range res.Nets {
		var layers []int
		for l := range nr.Copper {
			layers = append(layers, l)
		}
		sort.Ints(layers)
		for i, layer := range layers {
			viaR, viaL := "-", "-"
			viaCount := ""
			if i == 0 && len(nr.Vias) > 0 {
				viaR, viaL = barrelR, barrelL
				viaCount = fmt.Sprintf("%d", len(nr.Vias))
			}
			t.AddRow(nr.Name, viaCount, layer, nr.Copper[layer].Area(), viaR, viaL)
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if err := c.writeReport(res.Report); err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		palette := []string{"#c02020", "#2060c0", "#20a040", "#c08020"}
		for _, layer := range b.RoutableLayers() {
			cv := svgout.New(b.Outline)
			cv.Rect(b.Outline, svgout.Style{Fill: "#f8f8f4", Stroke: "#333", StrokeWidth: 1})
			for _, o := range b.Obstacle {
				if o.Layer == layer {
					cv.Region(o.Shape, svgout.Style{Fill: "#444", Hatch: o.Net == board.NetNone})
				}
			}
			for i, nr := range res.Nets {
				cv.Region(nr.Copper[layer], svgout.Style{Fill: palette[i%len(palette)], Opacity: 0.85})
				for _, v := range nr.Vias {
					cv.Circle(v.At, 2, svgout.Style{Fill: "#000"})
				}
			}
			path := filepath.Join(outDir, fmt.Sprintf("layer%d.svg", layer))
			if err := cv.WriteFile(path); err != nil {
				return err
			}
			c.log.Info("wrote layout", "path", path)
		}
	}
	return nil
}

// totalSpanUM sums the stackup dielectric heights as the via length
// estimate for the report.
func totalSpanUM(b *board.Board) float64 {
	total := 0.0
	for _, l := range b.Stackup.Layers {
		total += l.DielectricBelowUM
	}
	if total <= 0 {
		total = 800
	}
	return total
}

func loadCase(name string) (*boardio.Decoded, error) {
	var (
		cs  *cases.CaseStudy
		err error
	)
	switch name {
	case "tworail":
		cs, err = cases.TwoRail()
	case "sixrail":
		cs, err = cases.SixRail()
	case "threerail":
		cs, err = cases.ThreeRail(cases.Table4()[4]) // the middle layout
	default:
		return nil, fmt.Errorf("unknown case %q (want tworail, sixrail, threerail)", name)
	}
	if err != nil {
		return nil, err
	}
	return &boardio.Decoded{Board: cs.Board, RoutingLayer: cs.RoutingLayer, Budgets: cs.Budgets, Config: cs.Config}, nil
}

func renderLayout(res *sprout.BoardResult, path string) error {
	b := res.Board
	c := svgout.New(b.Outline)
	c.Rect(b.Outline, svgout.Style{Fill: "#f8f8f4", Stroke: "#333", StrokeWidth: 1})
	palette := []string{"#c02020", "#2060c0", "#20a040", "#c08020", "#8040c0", "#209090"}
	for _, o := range b.Obstacle {
		if o.Layer == res.Layer {
			c.Region(o.Shape, svgout.Style{Fill: "#444", Hatch: o.Net == board.NetNone})
		}
	}
	for i, rail := range res.Rails {
		if rail.Route == nil {
			continue
		}
		c.Region(rail.Route.Shape, svgout.Style{Fill: palette[i%len(palette)], Opacity: 0.85})
	}
	for _, g := range b.Groups {
		if g.Layer == res.Layer {
			c.Region(g.Shape(), svgout.Style{Stroke: "#000", StrokeWidth: 0.6})
		}
	}
	return c.WriteFile(path)
}
