package sprout

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"sprout/internal/board"
	"sprout/internal/geom"
	"sprout/internal/obs"
	"sprout/internal/route"
)

// MLRouteOptions configures a multilayer routing run.
type MLRouteOptions struct {
	// Layers lists the candidate routing layers; empty selects every
	// non-plane layer. The order does not matter: the router works on a
	// sorted copy and does not reorder the caller's slice.
	Layers []int
	// Budgets maps each net to its per-component metal-area budget.
	Budgets map[board.NetID]int64
	// Config tunes the per-component SPROUT pipeline.
	Config route.Config
}

// MLNetResult is one net routed across layers.
type MLNetResult struct {
	Net    board.NetID
	Name   string
	Vias   []route.Via
	Copper map[int]geom.Region // layer -> copper
	// Solve summarizes the solver-ladder telemetry across every layer
	// component routed for this net.
	Solve SolveStats
}

// MLBoardResult is the output of RouteBoardMultilayer.
type MLBoardResult struct {
	Board *board.Board
	Nets  []MLNetResult
	// Report is the machine-readable run summary (one rail row per net).
	Report *obs.RunReport
}

// RouteBoardMultilayer routes across layers without cancellation support;
// see RouteBoardMultilayerCtx.
func RouteBoardMultilayer(b *board.Board, opt MLRouteOptions) (*MLBoardResult, error) {
	return RouteBoardMultilayerCtx(context.Background(), b, opt)
}

// RouteBoardMultilayerCtx routes every net that has terminal groups on any
// routable layer, using the Appendix Algorithm 6 decomposition: plan the
// cheapest layer assignment through a 3-D via graph, then run the
// single-layer SPROUT pipeline on every engaged layer component. Copper of
// previously routed nets is removed (with clearance) from the space of the
// remaining nets on every layer, as in the single-layer driver.
//
// Internal panics are converted to *PanicError and a cancelled context
// aborts between (and within) per-net routing passes with ctx.Err().
func RouteBoardMultilayerCtx(ctx context.Context, b *board.Board, opt MLRouteOptions) (out *MLBoardResult, err error) {
	defer recoverToError(&err)
	start := time.Now()
	ctx, rootSp := obs.StartSpan(ctx, "RouteBoardMultilayer", obs.A("board", b.Name))
	defer func() {
		rootSp.Fail(err)
		rootSp.End()
	}()
	// Sort a copy: the caller's slice is not reordered.
	layers := append([]int(nil), opt.Layers...)
	if len(layers) == 0 {
		layers = b.RoutableLayers()
	}
	sort.Ints(layers)
	for i, l := range layers {
		if l < 1 || l > b.Stackup.NumLayers() {
			return nil, fmt.Errorf("sprout: multilayer layer %d out of range", l)
		}
		if i > 0 && layers[i-1] == l {
			return nil, fmt.Errorf("sprout: multilayer layer %d listed twice", l)
		}
		if b.Stackup.Layer(l).IsPlane {
			return nil, fmt.Errorf("sprout: layer %d is a reference plane", l)
		}
	}
	// The 3-D planning graph (paper Alg. 6) is tiled at twice the
	// routing pitch.
	viaPitch := max(2*opt.Config.WithDefaults().DX, 2)

	out = &MLBoardResult{Board: b}
	// copper[layer] accumulates routed copper per layer across nets.
	copper := map[int]geom.Region{}
	for _, net := range b.Nets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Gather the net's terminals over all candidate layers.
		var terms []route.MLTerminal
		for _, layer := range layers {
			for _, g := range b.GroupsOn(net.ID, layer) {
				terms = append(terms, route.MLTerminal{
					Name: g.Name, Layer: layer, Shape: g.Shape(), Current: g.Current,
				})
			}
		}
		if len(terms) < 2 {
			continue
		}
		spaces := make([]route.LayerSpace, 0, len(layers))
		availOf := map[int]geom.Region{}
		for _, layer := range layers {
			avail := b.AvailableSpace(net.ID, layer)
			if prev, ok := copper[layer]; ok {
				avail = avail.Subtract(prev.Bloat(b.Rules.Clearance))
			}
			availOf[layer] = avail
			spaces = append(spaces, route.LayerSpace{Layer: layer, Avail: avail})
		}
		// Each net gets its own trace track and pprof label, as in the
		// single-layer driver.
		if err := func() error {
			nctx := obs.WithTrack(ctx, "net:"+net.Name)
			nctx = pprof.WithLabels(nctx, pprof.Labels("rail", net.Name))
			pprof.SetGoroutineLabels(nctx)
			defer pprof.SetGoroutineLabels(ctx)
			nctx, netSp := obs.StartSpan(nctx, "Net", obs.A("net", net.Name))
			defer netSp.End()

			plan, err := route.PlanMultilayerCtx(nctx, spaces, terms, viaPitch, b.Rules.ViaCost)
			if err != nil {
				err = fmt.Errorf("sprout: net %s multilayer plan: %w", net.Name, err)
				netSp.Fail(err)
				return err
			}
			nr := MLNetResult{Net: net.ID, Name: net.Name, Vias: plan.Vias, Copper: map[int]geom.Region{}}
			for _, layer := range plan.LayersUsed() {
				cfg := opt.Config
				if budget := opt.Budgets[net.ID]; budget > 0 {
					cfg.AreaMax = budget
				}
				lctx, laySp := obs.StartSpan(nctx, "Layer", obs.A("layer", layer))
				results, err := route.RouteLayerCtx(lctx, availOf[layer], plan.PerLayer[layer], cfg)
				if err != nil {
					err = fmt.Errorf("sprout: net %s layer %d: %w", net.Name, layer, err)
					laySp.Fail(err)
					laySp.End()
					netSp.Fail(err)
					return err
				}
				laySp.End()
				lc := geom.EmptyRegion()
				for _, r := range results {
					lc = lc.Union(r.Shape)
					nr.Solve.Merge(r.Solve)
				}
				nr.Copper[layer] = lc
				copper[layer] = copper[layer].Union(lc)
			}
			out.Nets = append(out.Nets, nr)
			return nil
		}(); err != nil {
			return nil, err
		}
	}
	if len(out.Nets) == 0 {
		return nil, fmt.Errorf("sprout: no multilayer-routable nets")
	}
	out.Report = buildRunReport(b.Name, 0, true, time.Since(start),
		mlRailReports(out.Nets), obs.FromContext(ctx))
	return out, nil
}

// mlRailReports converts the multilayer net results into report rows: one
// row per net with the via count, total copper area across layers, and
// the merged solver telemetry.
func mlRailReports(nets []MLNetResult) []obs.RailReport {
	out := make([]obs.RailReport, 0, len(nets))
	for _, nr := range nets {
		rr := obs.RailReport{
			Name:  nr.Name,
			Net:   int(nr.Net),
			Vias:  len(nr.Vias),
			Solve: solveReport(nr.Solve),
		}
		for _, c := range nr.Copper {
			rr.AreaUnits += c.Area()
		}
		out = append(out, rr)
	}
	return out
}
