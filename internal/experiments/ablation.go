package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"sprout/internal/cases"
	"sprout/internal/report"
	"sprout/internal/route"
)

// AblationRow is one router configuration evaluated on the same scene.
type AblationRow struct {
	Name       string
	Resistance float64
	Area       int64
	Elapsed    time.Duration
}

// AblationResult collects the design-choice study.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblation evaluates SPROUT's design choices on the Fig. 8 scene:
// seed only (shortest paths, no growth), uniform growth (no node-current
// guidance), grow without refine, refine without reheat, the full
// pipeline, and tile-size variants. It quantifies what each mechanism of
// §II-C..F buys.
func RunAblation() (*AblationResult, error) {
	ctx := context.Background()
	avail, terms := cases.Fig8Scene()
	const budget = 4000
	out := &AblationResult{}

	run := func(name string, fn func() (float64, int64, error)) error {
		t0 := time.Now()
		res, area, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out.Rows = append(out.Rows, AblationRow{Name: name, Resistance: res, Area: area, Elapsed: time.Since(t0)})
		return nil
	}

	// Uniform growth: dilate everywhere instead of following the node
	// current, then shed the overshoot pseudo-randomly — no node-current
	// information anywhere. This is the "no metric" strawman.
	if err := run("uniform-grow (no node-current)", func() (float64, int64, error) {
		tg, err := route.BuildTileGraph(avail, terms, 4, 4)
		if err != nil {
			return 0, 0, err
		}
		members, err := tg.Seed()
		if err != nil {
			return 0, 0, err
		}
		for tg.MembersArea(members) < budget {
			if tg.Dilate(members) == 0 {
				break
			}
		}
		if err := erodeUnguided(tg, members, budget); err != nil {
			return 0, 0, err
		}
		m, err := tg.NodeCurrentsCtx(ctx, members, nil)
		if err != nil {
			return 0, 0, err
		}
		return m.Resistance, tg.MembersArea(members), nil
	}); err != nil {
		return nil, err
	}

	// Grow only (no refine, no reheat). Its first trace record is the
	// pipeline's own seed on the same Δx = 4 graph: the seed-only row,
	// the Dijkstra baseline every grow/refine improvement is measured
	// against, which leads the table.
	var seed route.IterRecord
	if err := run("grow-only (Alg. 4)", func() (float64, int64, error) {
		res, err := route.RouteCtx(ctx, avail, terms, route.Config{
			DX: 4, DY: 4, AreaMax: budget, RefineIters: -1,
		})
		if err != nil {
			return 0, 0, err
		}
		seed = res.Trace[0]
		return res.Resistance, res.Shape.Area(), nil
	}); err != nil {
		return nil, err
	}
	out.Rows = slices.Insert(out.Rows, 0, AblationRow{
		Name: "seed-only (Alg. 2)", Resistance: seed.Resistance, Area: seed.Area, Elapsed: seed.Elapsed,
	})

	// Grow + refine (no reheat): the paper's core loop.
	if err := run("grow+refine (Algs. 4-5)", func() (float64, int64, error) {
		res, err := route.RouteCtx(ctx, avail, terms, route.Config{DX: 4, DY: 4, AreaMax: budget, GrowNodes: 20, RefineNodes: 10, RefineIters: 10})
		if err != nil {
			return 0, 0, err
		}
		return res.Resistance, res.Shape.Area(), nil
	}); err != nil {
		return nil, err
	}

	// Full pipeline with reheating (§II-F).
	if err := run("full+reheat (§II-F)", func() (float64, int64, error) {
		res, err := route.RouteCtx(ctx, avail, terms, route.Config{
			DX: 4, DY: 4, AreaMax: budget, GrowNodes: 20, RefineNodes: 10,
			RefineIters: 10, ReheatDilations: 3,
		})
		if err != nil {
			return 0, 0, err
		}
		return res.Resistance, res.Shape.Area(), nil
	}); err != nil {
		return nil, err
	}

	// Tile-size variants (§II-B: finer tiling, smoother shapes, lower R).
	for _, dx := range []int64{8, 2} {
		dx := dx
		if err := run(fmt.Sprintf("full, Δx=%d", dx), func() (float64, int64, error) {
			res, err := route.RouteCtx(ctx, avail, terms, route.Config{DX: dx, DY: dx, AreaMax: budget, GrowNodes: 20, RefineNodes: 10, RefineIters: 10})
			if err != nil {
				return 0, 0, err
			}
			return res.Resistance, res.Shape.Area(), nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// erodeUnguided sheds members down to the budget without any electrical
// guidance: candidates are visited in a fixed pseudo-random order (linear
// congruential, seeded deterministically) and removed when the terminals
// stay connected.
func erodeUnguided(tg *route.TileGraph, members []bool, budget int64) error {
	var cands []int
	for id, in := range members {
		if in && !tg.IsTerminal(id) {
			cands = append(cands, id)
		}
	}
	// Deterministic shuffle.
	state := uint64(0x9e3779b97f4a7c15)
	for i := len(cands) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		cands[i], cands[j] = cands[j], cands[i]
	}
	for _, id := range cands {
		if tg.MembersArea(members) <= budget {
			return nil
		}
		members[id] = false
		if !tg.TerminalsConnected(members) {
			members[id] = true
		}
	}
	return nil
}

// Ablation runs the study and prints the comparison table.
func Ablation(w io.Writer) (*AblationResult, error) {
	section(w, "E10 / ablation", "what each SPROUT mechanism buys (Fig. 8 scene, equal budget)")
	res, err := RunAblation()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("router configuration study",
		"configuration", "R (squares)", "area", "time")
	for _, row := range res.Rows {
		t.AddRow(row.Name, row.Resistance, row.Area, row.Elapsed.Round(time.Millisecond))
	}
	return res, t.Render(w)
}
