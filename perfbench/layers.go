package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sprout"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// metricDef names a printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics and layerMetrics list every metric the benchmark
// prints, in the order BENCHMARK.json declares them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"ir_drop_mv", "mV"},
	{"ok_frac", "ratio"},
}

var layerMetrics = []metricDef{
	{"board.avail_ms", "ms"},
	{"board.avail_alloc_mb", "MB"},
	{"geom.claim_ms", "ms"},
	{"route.tile_ms", "ms"},
	{"route.tile_alloc_mb", "MB"},
	{"route.tiles", "count"},
	{"route.tile_edges", "count"},
	{"route.loop_ms", "ms"},
	{"route.loop_alloc_mb", "MB"},
	{"route.seed_ms", "ms"},
	{"route.grow_ms", "ms"},
	{"route.refine_ms", "ms"},
	{"route.reheat_ms", "ms"},
	{"route.backconvert_ms", "ms"},
	{"route.evals", "count"},
	{"route.eval_repeat_frac", "ratio"},
	{"sparse.solves", "count"},
	{"sparse.cg_iters", "count"},
	{"sparse.iters_per_solve", "count"},
	{"sparse.escalations", "count"},
	{"sparse.rung." + sparse.RungCG, "count"},
	{"sparse.rung." + sparse.RungCGAMG, "count"},
	{"sparse.rung." + sparse.RungCGRelaxed, "count"},
	{"sparse.rung." + sparse.RungDense, "count"},
	{"extract.ms", "ms"},
	{"extract.alloc_mb", "MB"},
	{"manual.ms", "ms"},
	{"manual.alloc_mb", "MB"},
	{"explore.rail_routes", "count"},
	{"explore.prefix_hits", "count"},
	{"explore.reuse_ratio", "ratio"},
	{"explore.node_ms_p50", "ms"},
	{"explore.worker_util", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ms", "ms"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), layerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

// set records a declared metric; an undeclared name is a bug.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// Names of the spans the benchmark records around its own calls. The
// spans of the layers the program traces itself (the stages of
// TileGraph.RouteCtx, Extract, SpaceToGraph, ExploreNode) keep the
// program's names.
const (
	spanOp      = "bench.op"
	spanBoard   = "bench.board"
	spanGeom    = "bench.geom"
	spanTile    = "bench.route.tile"
	spanLoop    = "bench.route.loop"
	spanExtract = "bench.extract"
	spanManual  = "bench.manual"

	attrAllocBytes = "alloc_bytes"
)

// stageSpans maps the stage spans of TileGraph.RouteCtx to their metrics.
var stageSpans = []struct{ span, metric string }{
	{"Seed", "route.seed_ms"},
	{"Grow", "route.grow_ms"},
	{"Refine", "route.refine_ms"},
	{"Reheat", "route.reheat_ms"},
	{"BackConvert", "route.backconvert_ms"},
}

// layerCall runs fn under a span named after the layer it calls and
// records on the span the heap bytes and objects fn allocated.
func layerCall(ctx context.Context, name string, fn func(ctx context.Context, sp *obs.Span) error) error {
	before := readRuntime()
	lctx, sp := obs.StartSpan(ctx, name)
	err := fn(lctx, sp)
	used := readRuntime().sub(before)
	sp.SetAttrs(obs.A(attrAllocBytes, used.bytes), obs.A("alloc_objects", used.objects))
	sp.Fail(err)
	sp.End()
	return err
}

// layerDo is layerCall for a call that cannot fail.
func layerDo(ctx context.Context, name string, fn func()) {
	_ = layerCall(ctx, name, func(context.Context, *obs.Span) error {
		fn()
		return nil
	})
}

// traceRun is what a traced run leaves for the per-layer fold. Its
// accessors return totals per traced op.
type traceRun struct {
	recs     []obs.SpanRecord
	spans    map[string]*spanSum
	counters map[string]int64
	ops      float64
}

// spanSum totals the spans of one name.
type spanSum struct {
	dur   time.Duration
	attrs map[string]float64
}

func newTraceRun(tr *sprout.Tracer, ops int) *traceRun {
	counters, _ := tr.MetricsSnapshot()
	t := &traceRun{recs: tr.SpanRecords(), spans: map[string]*spanSum{}, counters: counters, ops: float64(ops)}
	for _, rec := range t.recs {
		s := t.spans[rec.Name]
		if s == nil {
			s = &spanSum{attrs: map[string]float64{}}
			t.spans[rec.Name] = s
		}
		s.dur += rec.End - rec.Start
		for _, a := range rec.Attrs {
			if f, ok := number(a.Val); ok {
				s.attrs[a.Key] += f
			}
		}
	}
	return t
}

// ms is the time spent in spans of the given name, per op.
func (t *traceRun) ms(span string) float64 {
	if s := t.spans[span]; s != nil {
		return ms(s.dur) / t.ops
	}
	return 0
}

// attr sums a numeric attribute over the spans of the given name, per op.
func (t *traceRun) attr(span, key string) float64 {
	if s := t.spans[span]; s != nil {
		return s.attrs[key] / t.ops
	}
	return 0
}

// count is a tracer counter per op.
func (t *traceRun) count(name string) float64 { return float64(t.counters[name]) / t.ops }

func number(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func attrOf(rec obs.SpanRecord, key string) any {
	for _, a := range rec.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// perLayer turns a traced run into the per-layer metrics. Every declared
// per-layer metric is printed; one whose layer the workload does not run
// or cannot observe reads 0 (NOTES.md lists which).
func perLayer[R any](w workload[R], tr *sprout.Tracer, st *stats) (*report, error) {
	if len(st.tracedMS) == 0 {
		return nil, fmt.Errorf("no traced op matched its untraced op (%d attempted, %d failed)", st.attempted, st.failed)
	}
	t := newTraceRun(tr, st.rebuilds)
	r := newReport(st)
	for _, m := range layerMetrics {
		r.set(m.name, 0)
	}
	for _, s := range stageSpans {
		r.set(s.metric, t.ms(s.span))
	}
	hits, rebuilds := t.count(obs.MSolverCacheHits), t.count(obs.MSolverCacheRebuilds)
	r.set("route.evals", hits+rebuilds)
	if hits+rebuilds > 0 {
		r.set("route.eval_repeat_frac", hits/(hits+rebuilds))
	}
	solves, iters := t.count(obs.MSolverSolves), t.count(obs.MSolverIterations)
	r.set("sparse.solves", solves)
	r.set("sparse.cg_iters", iters)
	if solves > 0 {
		r.set("sparse.iters_per_solve", iters/solves)
	}
	r.set("sparse.escalations", t.count(obs.MSolverEscalations))
	for name := range t.counters {
		rung, ok := strings.CutPrefix(name, obs.MSolverRungPrefix)
		if !ok {
			continue
		}
		m := "sparse.rung." + rung
		if _, declared := units[m]; !declared {
			return nil, fmt.Errorf("solver rung %q won solves but has no declared metric %s", rung, m)
		}
		r.set(m, t.count(name))
	}
	r.set("runtime.gc_cycles", float64(st.traced.gcCycles)/t.ops)
	r.set("runtime.gc_cpu_s", st.traced.gcCPUSeconds/t.ops)
	r.set("trace.overhead_ms", median(st.tracedMS)-median(st.opMS))
	if err := w.layers(t, r); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("per-layer metrics are per op over %d traced ops", st.rebuilds))
	return r, nil
}
