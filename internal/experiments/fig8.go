package experiments

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"sprout/internal/cases"
	"sprout/internal/report"
	"sprout/internal/route"
	"sprout/internal/svgout"
)

// Fig8Result captures the staged routing demonstration.
type Fig8Result struct {
	Result *route.Result
}

// RunFig8 routes the three-terminal demonstration scene and, when outDir
// is non-empty, renders per-stage snapshots mirroring paper Fig. 8a-f.
func RunFig8(outDir string) (*Fig8Result, error) {
	ctx := context.Background()
	avail, terms := cases.Fig8Scene()
	tg, err := route.BuildTileGraph(avail, terms, 4, 4)
	if err != nil {
		return nil, err
	}

	// Re-run the pipeline stage by stage so each stage can be rendered.
	snapshots := []struct {
		name    string
		members []bool
	}{}
	members, err := tg.Seed()
	if err != nil {
		return nil, err
	}
	snap := func(name string) {
		cp := append([]bool(nil), members...)
		snapshots = append(snapshots, struct {
			name    string
			members []bool
		}{name, cp})
	}
	snap("a_seed")
	// Each step hands on the metrics of the mask it leaves, so every mask
	// is scored once.
	m, err := tg.NodeCurrentsCtx(ctx, members, nil)
	if err != nil {
		return nil, err
	}
	grow := func(steps int) error {
		for i := 0; i < steps; i++ {
			var err error
			if _, m, err = tg.SmartGrowCtx(ctx, members, m, 20, nil); err != nil {
				return err
			}
		}
		return nil
	}
	refine := func(steps int) error {
		for i := 0; i < steps; i++ {
			var err error
			if m, err = tg.SmartRefineCtx(ctx, members, m, 8, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := grow(4); err != nil {
		return nil, err
	}
	snap("c_grow_initial")
	if err := grow(6); err != nil {
		return nil, err
	}
	snap("d_grow_final")
	if err := refine(3); err != nil {
		return nil, err
	}
	snap("e_refine_initial")
	if err := refine(5); err != nil {
		return nil, err
	}
	snap("f_refine_final")

	if outDir != "" {
		for _, s := range snapshots {
			c := svgout.New(avail.Bounds())
			c.Region(avail, svgout.Style{Fill: "#eeeeea", Stroke: "#999", StrokeWidth: 0.5})
			c.Region(tg.Union(s.members), svgout.Style{Fill: "#c02020", Opacity: 0.85})
			for _, t := range terms {
				c.Region(t.Shape, svgout.Style{Fill: "#000"})
			}
			path := filepath.Join(outDir, fmt.Sprintf("fig8_%s.svg", s.name))
			if err := c.WriteFile(path); err != nil {
				return nil, err
			}
		}
	}

	// Also run the packaged pipeline for the convergence trace.
	res, err := route.RouteCtx(ctx, avail, terms, route.Config{DX: 4, DY: 4, AreaMax: 4000, GrowNodes: 20, RefineNodes: 10, RefineIters: 10, ReheatDilations: 2})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Result: res}, nil
}

// Fig8 runs the demonstration and prints the per-stage convergence trace.
func Fig8(w io.Writer, outDir string) (*Fig8Result, error) {
	section(w, "E1 / Fig. 8", "graph-based routing stages: seed → grow → refine → reheat")
	res, err := RunFig8(outDir)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("pipeline trace (resistance in relative sheet-squares)",
		"stage", "nodes", "area", "resistance")
	for _, rec := range res.Result.Trace {
		t.AddRow(rec.Stage, rec.Nodes, rec.Area, rec.Resistance)
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	first := res.Result.Trace[0].Resistance
	fmt.Fprintf(w, "\nseed resistance %.4g → final %.4g (%.1f%% reduction)\n",
		first, res.Result.Resistance, 100*(first-res.Result.Resistance)/first)
	return res, nil
}
