package route

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strings"
	"time"

	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// stageCtx opens a tracing span for one pipeline stage and tags the
// goroutine's pprof labels with the stage name, so CPU profiles attribute
// solver time to paper stages (the labels are inherited by the solver
// worker pool). The returned done func ends the span and restores the
// previous labels; it must run on the goroutine that called stageCtx.
func stageCtx(ctx context.Context, stage string, attrs ...obs.Attr) (context.Context, *obs.Span, func()) {
	lctx := pprof.WithLabels(ctx, pprof.Labels("stage", stage))
	pprof.SetGoroutineLabels(lctx)
	sctx, sp := obs.StartSpan(lctx, stage, attrs...)
	// Each stage feeds its stage.<name> latency histogram so /metrics can
	// report p50/p95/p99 per paper stage. Gated on the tracer so the
	// disabled path stays free of clock reads.
	tr := obs.FromContext(ctx)
	var start time.Time
	if tr.Enabled() {
		start = time.Now()
	}
	return sctx, sp, func() {
		sp.End()
		if tr.Enabled() {
			tr.Histogram(obs.MStagePrefix + strings.ToLower(stage)).Observe(float64(time.Since(start)) / 1e6)
		}
		pprof.SetGoroutineLabels(ctx)
	}
}

// refineTol stops refinement when the relative resistance improvement
// falls below it (paper Fig. 8f: "the reduction in impedance is
// negligible, triggering termination").
const refineTol = 1e-3

// Config tunes the SPROUT pipeline. Zero values select the documented
// defaults.
type Config struct {
	// DX, DY are the tile dimensions (paper Alg. 1 Δx, Δy). Default 10.
	DX, DY int64
	// AreaMax is the metal area budget A_max in grid units squared
	// (paper Eq. 5). Zero means "seed area times 4".
	AreaMax int64
	// GrowNodes is ΔV, the number of nodes added per SmartGrow iteration.
	// Default: enough tiles to add ~2% of the area budget, at least 1.
	GrowNodes int
	// RefineNodes is k for SmartRefine. Default max(GrowNodes/2, 1).
	RefineNodes int
	// RefineIters caps the refinement iterations. Default 10; negative
	// disables refinement entirely (used by ablation studies).
	RefineIters int
	// ReheatDilations is the number of dilation sweeps of the reheating
	// stage (§II-F). Zero disables reheating. Erosion, in the trim after
	// SmartGrow and in reheating, removes GrowNodes nodes per iteration.
	ReheatDilations int
}

// Validate rejects configurations that would silently misbehave once
// WithDefaults filled the zero fields: negative tile dimensions or a
// negative area budget.
func (c Config) Validate() error {
	if c.DX < 0 || c.DY < 0 {
		return fmt.Errorf("route: tile dimensions DX=%d DY=%d must be non-negative (0 selects the default)", c.DX, c.DY)
	}
	if c.AreaMax < 0 {
		return fmt.Errorf("route: AreaMax %d must be non-negative (0 selects 4x the seed area)", c.AreaMax)
	}
	return nil
}

// WithDefaults returns c with its zero fields set to the documented
// defaults.
func (c Config) WithDefaults() Config {
	if c.DX == 0 {
		c.DX = 10
	}
	if c.DY == 0 {
		c.DY = c.DX
	}
	if c.RefineIters == 0 {
		c.RefineIters = 10
	}
	return c
}

// IterRecord traces one pipeline step for convergence analysis (Fig. 8)
// and the runtime study (§II-H).
type IterRecord struct {
	Stage      string        // "seed", "grow", "refine", "dilate", "erode"
	Nodes      int           // subgraph order |V_n^s|
	Area       int64         // metal area
	Resistance float64       // objective (relative units)
	Elapsed    time.Duration // cumulative wall clock
}

// Result is a routed net.
type Result struct {
	// Shape is the synthesized copper region (back-converted union of the
	// member tiles, paper §II-G).
	Shape geom.Region
	// Members is the final member mask over tile-graph nodes.
	Members []bool
	// Graph is the tile graph the route was computed on.
	Graph *TileGraph
	// Resistance is the final weighted pairwise effective resistance in
	// relative (sheet-squares) units.
	Resistance float64
	// PairResistance lists final per-pair effective resistances.
	PairResistance []float64
	// Trace records every pipeline iteration.
	Trace []IterRecord
	// Solve summarizes the solver-fallback-ladder telemetry across every
	// nodal analysis the pipeline ran — successful solves included.
	Solve sparse.SolveStats
}

// RouteCtx runs the full SPROUT pipeline on one net's available space
// (paper Fig. 3): tile → seed → SmartGrow to the area budget → SmartRefine
// → optional reheating → back conversion. The context is checked between
// pipeline iterations and inside the linear solves; on cancellation the
// pipeline aborts with ctx.Err(). A pipeline that fails after its seed
// returns the error together with the seed-only route, as
// TileGraph.RouteCtx documents.
func RouteCtx(ctx context.Context, avail geom.Region, terms []Terminal, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	_, sp, done := stageCtx(ctx, "SpaceToGraph")
	tg, err := BuildTileGraph(avail, terms, cfg.DX, cfg.DY)
	if err != nil {
		sp.Fail(err)
		done()
		return nil, err
	}
	sp.SetAttrs(
		obs.A("nodes", tg.G.N()),
		obs.A("edges", tg.G.M()),
		obs.A("terminals", len(tg.Terminals)))
	done()
	return tg.RouteCtx(ctx, cfg)
}

// RouteCtx runs the pipeline on an already built tile graph. Every mask
// the pipeline visits is evaluated once: each stage hands the metrics of
// the mask it leaves to the next, from the seed through to the Result,
// and the metrics a stage replaced go back to the solve cache, whose later
// evaluations refill their NodeCurrent buffers.
//
// When a stage after the seed search fails (a budget below the seed area,
// a failed solve, a grow, refine or reheat fault), RouteCtx returns the
// error together with the seed-only route (paper Alg. 2) the rail can
// degrade to: the seed mask and shape, the seed evaluation's resistances
// and solver telemetry (Resistance NaN when the seed's own nodal analysis
// failed), and Trace[:1]. A failed seed search returns a nil Result.
func (tg *TileGraph) RouteCtx(ctx context.Context, cfg Config) (*Result, error) {
	return tg.route(ctx, cfg, NewSolveCache())
}

// route is RouteCtx over a caller-supplied solve cache.
func (tg *TileGraph) route(ctx context.Context, cfg Config, warm *SolveCache) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	start := time.Now()
	var trace []IterRecord

	record := func(stage string, members []bool, res float64) {
		trace = append(trace, IterRecord{
			Stage:      stage,
			Nodes:      MemberCount(members),
			Area:       tg.MembersArea(members),
			Resistance: res,
			Elapsed:    time.Since(start),
		})
		if obs.Enabled(ctx) {
			attrs := []obs.Attr{
				obs.A("nodes", MemberCount(members)),
				obs.A("area", tg.MembersArea(members)),
			}
			if !math.IsNaN(res) {
				attrs = append(attrs, obs.A("resistance", res))
			}
			obs.Event(ctx, "iter."+stage, attrs...)
		}
	}

	// runStage runs one pipeline stage under its span + pprof labels and
	// records a failure on the span before propagating it.
	runStage := func(name string, fn func(sctx context.Context, sp *obs.Span) error) error {
		sctx, sp, done := stageCtx(ctx, name)
		err := fn(sctx, sp)
		sp.Fail(err)
		done()
		return err
	}

	// Stage 1: seed (Alg. 2).
	var (
		members []bool
		m       *Metrics // metrics of members, handed from stage to stage
		seed    *Metrics // the seed's metrics, nil when its evaluation failed
	)
	// degrade returns err with the seed-only route. Only the seed's
	// Resistance, PairResistance and Solve are read, which stay valid
	// after its NodeCurrent buffer went back to the cache. The later
	// stages edit members in place, so the seed mask is searched again.
	degrade := func(err error) (*Result, error) {
		if len(trace) == 0 {
			return nil, err
		}
		mask, serr := tg.Seed()
		if serr != nil {
			return nil, err
		}
		res := &Result{
			Shape:      tg.Union(mask),
			Members:    mask,
			Graph:      tg,
			Resistance: trace[0].Resistance,
			Trace:      trace[:1:1],
			Solve:      warm.stats,
		}
		if seed != nil {
			res.PairResistance = seed.PairResistance
			res.Solve = seed.Solve
		}
		return res, err
	}
	if err := runStage("Seed", func(sctx context.Context, sp *obs.Span) error {
		var err error
		members, err = tg.Seed()
		if err != nil {
			return err
		}
		seed, err = tg.NodeCurrentsCtx(sctx, members, warm)
		if err != nil {
			record("seed", members, math.NaN())
			return fmt.Errorf("route: seed metrics: %w", err)
		}
		m = seed
		sp.SetAttrs(
			obs.A("nodes", MemberCount(members)),
			obs.A("area", tg.MembersArea(members)))
		record("seed", members, m.Resistance)
		return nil
	}); err != nil {
		return degrade(err)
	}

	areaMax := cfg.AreaMax
	if areaMax <= 0 {
		areaMax = 4 * tg.MembersArea(members)
	}
	if tg.MembersArea(members) > areaMax {
		return degrade(fmt.Errorf("route: seed area %d already exceeds budget %d; increase AreaMax",
			tg.MembersArea(members), areaMax))
	}
	growNodes := cfg.GrowNodes
	if growNodes <= 0 {
		tileArea := cfg.DX * cfg.DY
		growNodes = int(areaMax / 50 / tileArea)
		if growNodes < 1 {
			growNodes = 1
		}
	}
	refineNodes := cfg.RefineNodes
	if refineNodes <= 0 {
		refineNodes = growNodes / 2
		if refineNodes < 1 {
			refineNodes = 1
		}
	}

	// Stage 2: SmartGrow until the area budget is reached (Alg. 4, §II-D),
	// then trim any overshoot so the budget constraint of Eq. 5 holds from
	// here on. Each iteration is a cancellation point (and a
	// fault-injection site so tests can abort mid-grow deterministically).
	if err := runStage("Grow", func(sctx context.Context, sp *obs.Span) error {
		grows := 0
		for tg.MembersArea(members) < areaMax {
			if err := faultinject.Check(faultinject.SiteGrow); err != nil {
				return fmt.Errorf("route: grow: %w", err)
			}
			if err := sctx.Err(); err != nil {
				return err
			}
			added, next, err := tg.SmartGrowCtx(sctx, members, m, growNodes, warm)
			if err != nil {
				return fmt.Errorf("route: grow: %w", err)
			}
			if len(added) == 0 {
				break // space exhausted before the budget
			}
			m = warm.advance(m, next)
			grows++
			record("grow", members, m.Resistance)
		}
		sp.SetAttrs(obs.A("iterations", grows), obs.A("area", tg.MembersArea(members)))
		// The last grow batch may overshoot A_max; erode the excess.
		next, err := tg.ErodeCtx(sctx, members, m, areaMax, growNodes, warm)
		if err != nil {
			return fmt.Errorf("route: trim: %w", err)
		}
		m = warm.advance(m, next)
		return nil
	}); err != nil {
		return degrade(err)
	}

	// Stage 3: SmartRefine until improvement is negligible (Alg. 5, §II-E).
	refinePass := func(rctx context.Context) error {
		for it := 0; it < cfg.RefineIters; it++ {
			if err := faultinject.Check(faultinject.SiteRefine); err != nil {
				return err
			}
			if err := rctx.Err(); err != nil {
				return err
			}
			prev := m.Resistance
			next, err := tg.SmartRefineCtx(rctx, members, m, refineNodes, warm)
			if err != nil {
				return err
			}
			m = warm.advance(m, next)
			record("refine", members, m.Resistance)
			if prev-m.Resistance < refineTol*prev {
				return nil
			}
		}
		return nil
	}
	if err := runStage("Refine", func(sctx context.Context, sp *obs.Span) error {
		if err := refinePass(sctx); err != nil {
			return fmt.Errorf("route: refine: %w", err)
		}
		sp.SetAttrs(obs.A("resistance", m.Resistance))
		return nil
	}); err != nil {
		return degrade(err)
	}

	// Snapshot the best within-budget configuration seen so far. Reheating
	// is an exploration move (§II-F) and may regress; it is only accepted
	// when it finds a better basin.
	best := append([]bool(nil), members...)
	bestRes := m.Resistance

	// Stage 4: reheating (§II-F): dilate past the budget, erode back.
	if cfg.ReheatDilations > 0 {
		if err := runStage("Reheat", func(sctx context.Context, sp *obs.Span) error {
			if err := sctx.Err(); err != nil {
				return err
			}
			for d := 0; d < cfg.ReheatDilations; d++ {
				if tg.Dilate(members) == 0 {
					break
				}
			}
			next, err := tg.NodeCurrentsCtx(sctx, members, warm)
			if err != nil {
				return fmt.Errorf("route: dilate metrics: %w", err)
			}
			m = warm.advance(m, next)
			record("dilate", members, m.Resistance)
			if next, err = tg.ErodeCtx(sctx, members, m, areaMax, growNodes, warm); err != nil {
				return fmt.Errorf("route: erode: %w", err)
			}
			m = warm.advance(m, next)
			record("erode", members, m.Resistance)

			// A short refine pass settles the eroded shape.
			if err := refinePass(sctx); err != nil {
				return fmt.Errorf("route: post-reheat refine: %w", err)
			}
			if m.Resistance < bestRes {
				bestRes = m.Resistance
				copy(best, members)
			} else {
				copy(members, best) // reheat regressed: restore
				record("restore", members, bestRes)
				sp.SetAttrs(obs.A("restored", true))
				// The one mask the pipeline scores twice: the restored
				// best was evaluated before reheating moved away from it.
				if next, err = tg.NodeCurrentsCtx(sctx, members, warm); err != nil {
					return fmt.Errorf("route: restore metrics: %w", err)
				}
				m = warm.advance(m, next)
			}
			return nil
		}); err != nil {
			return degrade(err)
		}
	}

	res := &Result{
		Members:        members,
		Graph:          tg,
		Resistance:     m.Resistance,
		PairResistance: m.PairResistance,
		Trace:          trace,
	}
	// Stage 5: back conversion (§II-G) — tiles to copper polygons.
	if err := runStage("BackConvert", func(sctx context.Context, sp *obs.Span) error {
		res.Shape = tg.Union(members)
		return nil
	}); err != nil {
		return degrade(err)
	}
	res.Solve = warm.stats
	return res, nil
}
