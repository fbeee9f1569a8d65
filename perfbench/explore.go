package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/geom"
	"sprout/internal/obs"
)

// exploreBench sweeps every net order of the Table IV three-rail board
// per op with ExploreNetOrdersCtx. Its input variants are the nine
// Table IV layouts (area budget rows).
type exploreBench struct {
	rows   []*cases.CaseStudy
	opts   []sprout.RouteOptions
	inputs []string
	pins   map[string]pin
}

// workers is the explorer's pool size: one worker per CPU.
var workers = runtime.NumCPU()

// threeRailExplore reads the pinned outcomes from root; an empty root
// skips them.
func threeRailExplore(root string) (*exploreBench, error) {
	xb := &exploreBench{}
	for _, row := range cases.Table4() {
		cs, err := cases.ThreeRail(row)
		if err != nil {
			return nil, err
		}
		xb.rows = append(xb.rows, cs)
		xb.opts = append(xb.opts, sprout.RouteOptions{
			Layer: cs.RoutingLayer, Budgets: cs.Budgets, Config: cs.Config, ExploreWorkers: workers,
		})
		xb.inputs = append(xb.inputs, fmt.Sprintf("table4-layout%d", row.Layout))
	}
	if root == "" {
		return xb, nil
	}
	var err error
	if xb.pins, err = (pinSource{workload: "threerail-explore"}).load(root, xb.inputs); err != nil {
		return nil, err
	}
	return xb, nil
}

func (xb *exploreBench) variants() int { return len(xb.opts) }

func (xb *exploreBench) op(ctx context.Context, v int) (*sprout.OrderExploration, error) {
	return sprout.ExploreNetOrdersCtx(ctx, xb.rows[v].Board, xb.opts[v])
}

// check verifies the sweep tried every order without a failure and that
// its winner meets the board invariants and its pin. The IR drop is the
// winner's.
func (xb *exploreBench) check(v int, ex *sprout.OrderExploration) (float64, error) {
	if len(ex.Failed) > 0 {
		return 0, fmt.Errorf("%d of %d orders failed, first: %w", len(ex.Failed), ex.Stats.Orders, ex.Failed[0].Err)
	}
	if ex.Tried != ex.Stats.Orders || ex.Best == nil {
		return 0, fmt.Errorf("%d of %d orders evaluated", ex.Tried, ex.Stats.Orders)
	}
	if err := checkBoard(ex.Best, false); err != nil {
		return 0, fmt.Errorf("best order: %w", err)
	}
	in := xb.inputs[v]
	if err := xb.pins[in].match(explorePin(in, ex)); err != nil {
		return 0, err
	}
	return irDropMV(ex.Best)
}

func explorePin(input string, ex *sprout.OrderExploration) pin {
	var order []string
	for _, id := range ex.BestOrder {
		order = append(order, ex.Best.Board.Nets[id].Name)
	}
	return pinOf(input, order, ex.Best.Rails)
}

// rebuild repeats the sweep; the tracer in ctx collects the explorer's
// ExploreNode spans and prefix counters and the pipeline's stage spans.
func (xb *exploreBench) rebuild(ctx context.Context, v int) (*sprout.OrderExploration, error) {
	return xb.op(ctx, v)
}

func (xb *exploreBench) same(want, got *sprout.OrderExploration) error {
	switch {
	case !slices.Equal(want.BestOrder, got.BestOrder) || want.BestScore != got.BestScore:
		return fmt.Errorf("best order %v scores %g, want %v scoring %g", got.BestOrder, got.BestScore, want.BestOrder, want.BestScore)
	case !reflect.DeepEqual(want.Evaluated, got.Evaluated):
		return fmt.Errorf("evaluated orders or scores differ")
	}
	return sameRails(want.Best.Rails, got.Best.Rails)
}

// availSink keeps the replayed AvailableSpace results alive.
var availSink geom.Region

// layers reads the sweep's per-layer numbers from the program's own spans
// and counters. AvailableSpace has no span inside the sweep; it depends
// only on the board and the net, so each routed node's call is replayed
// here, after the timed run, to measure board.avail_*.
func (xb *exploreBench) layers(t *traceRun, r *report) error {
	variantOf := map[uint64]int{}
	for _, rec := range t.recs {
		if rec.Name == spanOp {
			v, _ := attrOf(rec, "variant").(int)
			variantOf[rec.ID] = v
		}
	}
	var nodeMS []float64
	var avail time.Duration
	var availUse runtimeUse
	for _, rec := range t.recs {
		if rec.Name != "ExploreNode" {
			continue
		}
		nodeMS = append(nodeMS, ms(rec.End-rec.Start))
		v, ok := variantOf[rec.Parent]
		if !ok {
			return fmt.Errorf("ExploreNode span %d is not the child of a traced op", rec.ID)
		}
		cs := xb.rows[v]
		id, err := netNamed(cs.Board, attrOf(rec, "net"))
		if err != nil {
			return err
		}
		before := readRuntime()
		t0 := time.Now()
		availSink = cs.Board.AvailableSpace(id, cs.RoutingLayer)
		avail += time.Since(t0)
		availUse.add(readRuntime().sub(before))
	}
	if len(nodeMS) == 0 {
		return fmt.Errorf("the traced sweeps left no ExploreNode spans")
	}
	r.set("board.avail_ms", ms(avail)/t.ops)
	r.set("board.avail_alloc_mb", float64(availUse.bytes)/1e6/t.ops)
	r.set("route.tile_ms", t.ms("SpaceToGraph"))
	r.set("route.tiles", t.attr("SpaceToGraph", "nodes"))
	r.set("route.tile_edges", t.attr("SpaceToGraph", "edges"))
	loop := 0.0
	for _, s := range stageSpans {
		loop += t.ms(s.span)
	}
	r.set("route.loop_ms", loop)
	r.set("extract.ms", t.ms("Extract"))
	hits, misses := t.count(obs.MExplorePrefixHits), t.count(obs.MExplorePrefixMisses)
	r.set("explore.rail_routes", misses)
	r.set("explore.prefix_hits", hits)
	r.set("explore.reuse_ratio", hits/(hits+misses))
	r.set("explore.node_ms_p50", median(nodeMS))
	busy := t.ms("ExploreNode")
	r.set("explore.worker_util", busy/(float64(workers)*t.ms(spanOp)))
	r.set("trace.coverage", (t.ms("SpaceToGraph")+loop+t.ms("Extract"))/busy)
	return nil
}

func netNamed(b *board.Board, name any) (board.NetID, error) {
	for _, n := range b.Nets {
		if n.Name == name {
			return n.ID, nil
		}
	}
	return board.NetNone, fmt.Errorf("ExploreNode span names unknown net %v", name)
}
