// Benchmarks regenerate the computational core of every table and figure
// in the paper's evaluation:
//
//	BenchmarkTableIITwoRail       — Table II / Fig. 9: two-rail SPROUT+manual+extraction
//	BenchmarkTableIIISixRail      — Table III / Fig. 10: six-rail congested board
//	BenchmarkTableIVSweepLayout   — Table IV / Fig. 11: one exploration layout (row 5)
//	BenchmarkFig12Analysis        — Fig. 12b-d: PDN transient + AC + guideline per rail
//	BenchmarkFig8Stages           — Fig. 8: seed→grow→refine demonstration scene
//	BenchmarkMultilayerPlan       — Figs. 5/13 + Alg. 6: via planning and decomposition
//	BenchmarkSpaceToGraph         — Alg. 1: tiling the two-rail and six-rail V1 spaces
//	BenchmarkAvailableSpace       — Eq. 1: every six-rail net's available space
//	BenchmarkNodeCurrents         — Alg. 3: one node-current evaluation of a new mask
//	BenchmarkRouteLoop            — Algs. 2-5 + §II-F: the pipeline on a built tile graph
//	BenchmarkSeed                 — Alg. 2: pairwise Dijkstra + void filling
//	BenchmarkExtraction           — §III impedance extraction of a routed shape
//	BenchmarkRegionBoolean        — the Eq. 1 clipping substrate
//	BenchmarkComponents           — Alg. 2 void filling: a region split into components
//	BenchmarkAblationReheat       — §II-F reheat on/off at equal budget
//	BenchmarkDCOperateAndThermal  — E11 extension: distributed-load DC + thermal map
//	BenchmarkDecapPlan            — greedy decap selection against a target mask
//	BenchmarkPreconditioners      — Jacobi vs IC(0) CG on a tile-graph Laplacian (§II-H)
//	BenchmarkGerberWrite          — RS-274X output of a routed shape
//
// Run with: go test -bench=. -benchmem
package sprout_test

import (
	"context"
	"os"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/ckt"
	"sprout/internal/decap"
	"sprout/internal/experiments"
	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/gerber"
	"sprout/internal/obs"
	"sprout/internal/route"
	"sprout/internal/sparse"
	"sprout/internal/thermal"
)

func benchRouteCase(b *testing.B, cs *cases.CaseStudy, manual bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
			Layer:      cs.RoutingLayer,
			Budgets:    cs.Budgets,
			Config:     cs.Config,
			WithManual: manual,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rails) == 0 {
			b.Fatal("no rails")
		}
	}
}

func BenchmarkTableIITwoRail(b *testing.B) {
	cs, err := cases.TwoRail()
	if err != nil {
		b.Fatal(err)
	}
	benchRouteCase(b, cs, true)
}

func BenchmarkTableIIISixRail(b *testing.B) {
	cs, err := cases.SixRail()
	if err != nil {
		b.Fatal(err)
	}
	benchRouteCase(b, cs, true)
}

func BenchmarkTableIVSweepLayout(b *testing.B) {
	cs, err := cases.ThreeRail(cases.Table4()[4])
	if err != nil {
		b.Fatal(err)
	}
	benchRouteCase(b, cs, false)
}

func BenchmarkFig12Analysis(b *testing.B) {
	rep := &extract.Report{ResistanceOhms: 0.0007, InductancePH: 90}
	net := sprout.Net{Name: "MODEM", Current: 4, SlewTimeNS: 4}
	decaps := []sprout.Decap{ckt.DefaultDecap(), ckt.DefaultDecap()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sprout.AnalyzeRail(rep, net, 1.0, decaps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Stages(b *testing.B) {
	avail, terms := cases.Fig8Scene()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := route.RouteCtx(context.Background(), avail, terms, route.Config{
			DX: 4, DY: 4, AreaMax: 4000, ReheatDilations: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultilayerPlan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMultilayer(""); err != nil {
			b.Fatal(err)
		}
	}
}

// twoRailSpace returns the VDD1 available space and terminals of the
// two-rail board for the micro-benchmarks.
func twoRailSpace(b *testing.B) (geom.Region, []route.Terminal) {
	b.Helper()
	return firstRailSpace(b, cases.TwoRail)
}

// firstRailSpace returns the available space and terminals of a case
// board's first net on its routing layer.
func firstRailSpace(b *testing.B, load func() (*cases.CaseStudy, error)) (geom.Region, []route.Terminal) {
	b.Helper()
	cs, err := load()
	if err != nil {
		b.Fatal(err)
	}
	net := cs.Board.Nets[0]
	avail := cs.Board.AvailableSpace(net.ID, cs.RoutingLayer)
	var terms []route.Terminal
	for _, g := range cs.Board.GroupsOn(net.ID, cs.RoutingLayer) {
		terms = append(terms, route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current})
	}
	return avail, terms
}

// BenchmarkSpaceToGraph tiles one rail's available space (Alg. 1): the
// two-rail VDD1 space at Δ=5, and the six-rail V1 space at the board's
// own Δx=4, where tiling outweighs the grow/refine loop.
func BenchmarkSpaceToGraph(b *testing.B) {
	for _, leg := range []struct {
		name  string
		load  func() (*cases.CaseStudy, error)
		pitch int64
	}{
		{"tworail", cases.TwoRail, 5},
		{"sixrail", cases.SixRail, 4},
	} {
		b.Run(leg.name, func(b *testing.B) {
			avail, terms := firstRailSpace(b, leg.load)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := route.BuildTileGraph(avail, terms, leg.pitch, leg.pitch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAvailableSpace computes Eq. 1 for every net of the six-rail
// board on its routing layer.
func BenchmarkAvailableSpace(b *testing.B) {
	cs, err := cases.SixRail()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, net := range cs.Board.Nets {
			if cs.Board.AvailableSpace(net.ID, cs.RoutingLayer).Empty() {
				b.Fatalf("net %s has no available space", net.Name)
			}
		}
	}
}

// BenchmarkNodeCurrents measures one step of the grow/refine loop: every
// iteration toggles one non-terminal node, so each evaluation sees a new
// mask and the solver session rebuilds the induced subgraph and Laplacian
// into its retained arenas before the warm-started pair solves (DESIGN.md
// §5g) — the pipeline never scores the same mask twice in a row.
func BenchmarkNodeCurrents(b *testing.B) {
	avail, terms := twoRailSpace(b)
	tg, err := route.BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		b.Fatal(err)
	}
	full := make([]bool, tg.G.N())
	for i := range full {
		full[i] = true
	}
	isTerm := make([]bool, tg.G.N())
	for _, t := range tg.Terminals {
		isTerm[t] = true
	}
	toggle := -1
	for i := range full {
		if !isTerm[i] {
			toggle = i
			break
		}
	}
	if toggle < 0 {
		b.Fatal("no non-terminal node to toggle")
	}
	notched := make([]bool, tg.G.N())
	copy(notched, full)
	notched[toggle] = false
	// SPROUT_TRACE=path runs the benchmark with tracing enabled and writes
	// a Chrome trace-event file; CI's bench-smoke job uses it. Unset, the
	// benchmark measures the no-op tracer path.
	ctx := context.Background()
	var tracer *obs.Tracer
	if path := os.Getenv("SPROUT_TRACE"); path != "" {
		tracer = obs.New()
		ctx = obs.WithTracer(ctx, tracer)
		b.Cleanup(func() {
			if err := tracer.WriteChromeTraceFile(path); err != nil {
				b.Error(err)
			}
		})
	}
	warm := route.NewSolveCache()
	// Validate both masks and charge the initial arena growth outside the
	// timer; every timed iteration is then a pure structural rebuild.
	for _, m := range [][]bool{full, notched} {
		if _, err := tg.NodeCurrentsCtx(ctx, m, warm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := full
		if i%2 == 0 {
			m = notched
		}
		if _, err := tg.NodeCurrentsCtx(ctx, m, warm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteLoop runs the pipeline on the two-rail VDD1 tile graph at
// Δx = 5, built outside the timer: seed, grow, refine and reheat, whose
// evaluations refill the node-current buffers of the metrics the pipeline
// has left and rebuild into amortized solver arenas (DESIGN.md §5g). CI's
// bench-smoke job gates its B/op.
func BenchmarkRouteLoop(b *testing.B) {
	avail, terms := twoRailSpace(b)
	tg, err := route.BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := route.Config{DX: 5, DY: 5, AreaMax: 6000, ReheatDilations: 2}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.RouteCtx(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeed(b *testing.B) {
	avail, terms := twoRailSpace(b)
	tg, err := route.BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.Seed(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraction(b *testing.B) {
	avail, terms := twoRailSpace(b)
	res, err := route.RouteCtx(context.Background(), avail, terms, route.Config{DX: 5, DY: 5, AreaMax: 6000})
	if err != nil {
		b.Fatal(err)
	}
	shape := res.Shape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.ExtractCtx(context.Background(), shape, terms, extract.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegionBoolean(b *testing.B) {
	// The Eq. 1 workload: outline minus hundreds of buffered pads.
	outline := geom.RegionFromRect(geom.R(0, 0, 320, 300))
	var pads []geom.Region
	for x := int64(58); x < 270; x += 8 {
		for y := int64(66); y < 250; y += 16 {
			pads = append(pads, geom.RegionFromRect(geom.RectAround(geom.Pt(x, y), 2)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avail := outline
		for _, p := range pads {
			avail = avail.Subtract(p.Bloat(1))
		}
		if avail.Empty() {
			b.Fatal("space vanished")
		}
	}
}

// BenchmarkComponents splits a region of many components, as the seed's
// void filling (Alg. 2 lines 6-10) splits a frame minus the seed: the
// six-rail board's outline minus rail V1's available space, the other
// nets' pads bloated by the clearance, 566 components.
func BenchmarkComponents(b *testing.B) {
	cs, err := cases.SixRail()
	if err != nil {
		b.Fatal(err)
	}
	avail := cs.Board.AvailableSpace(cs.Board.Nets[0].ID, cs.RoutingLayer)
	g := geom.RegionFromRect(cs.Board.Outline).Subtract(avail)
	n := len(g.Components())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Components()) != n {
			b.Fatal("the split changed")
		}
	}
	b.ReportMetric(float64(n), "components")
}

func BenchmarkDCOperateAndThermal(b *testing.B) {
	avail, terms := twoRailSpace(b)
	res, err := route.RouteCtx(context.Background(), avail, terms, route.Config{DX: 5, DY: 5, AreaMax: 6000})
	if err != nil {
		b.Fatal(err)
	}
	exOpt := extract.Options{Pitch: 5, SheetOhms: 0.0005, HeightUM: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := extract.DCOperate(context.Background(), res.Shape, terms[0], terms[1:], 4, exOpt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := thermal.Simulate(context.Background(), op, exOpt.SheetOhms, thermal.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecapPlan(b *testing.B) {
	mask := ckt.TargetMask{
		{FreqHz: 1e4, LimitOhms: 0.008},
		{FreqHz: 1e6, LimitOhms: 0.008},
		{FreqHz: 1e8, LimitOhms: 0.8},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := decap.Plan(0.002, 2e-9, decap.StandardKit(), mask, decap.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.Pass {
			b.Fatal("plan must pass in the benchmark scenario")
		}
	}
}

func BenchmarkPreconditioners(b *testing.B) {
	avail, terms := twoRailSpace(b)
	tg, err := route.BuildTileGraph(avail, terms, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	rowPtr, to, w := tg.G.CSR()
	lap, err := sparse.ReassembleLaplacian(nil, rowPtr, to, w, tg.Terminals[0])
	if err != nil {
		b.Fatal(err)
	}
	mat := lap.Matrix()
	rhs := make([]float64, mat.N)
	rhs[0] = 1
	b.Run("jacobi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sparse.CGCtx(context.Background(), mat, rhs, nil, sparse.CGOptions{Precond: sparse.Jacobi(mat.Diag())}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ic0", func(b *testing.B) {
		ic, err := sparse.NewIC0(mat)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sparse.CGCtx(context.Background(), mat, rhs, nil, sparse.CGOptions{Precond: ic}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGerberWrite(b *testing.B) {
	avail, terms := twoRailSpace(b)
	res, err := route.RouteCtx(context.Background(), avail, terms, route.Config{DX: 5, DY: 5, AreaMax: 6000})
	if err != nil {
		b.Fatal(err)
	}
	nets := []gerber.NetCopper{{Name: "VDD1", Copper: res.Shape}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		if err := gerber.Write(&sink, "bench", nets, gerber.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

func BenchmarkAblationReheat(b *testing.B) {
	avail, terms := cases.Fig8Scene()
	for _, cfg := range []struct {
		name    string
		dilates int
	}{{"off", 0}, {"on", 3}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := route.RouteCtx(context.Background(), avail, terms, route.Config{
					DX: 4, DY: 4, AreaMax: 4000, ReheatDilations: cfg.dilates,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
