package extract_test

import (
	"context"
	"math"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/graph"
	"sprout/internal/route"
	"sprout/internal/sparse"
)

// nodeJouleHeatMapOracle is NodeJouleHeat as it read each edge's
// conductance before: through a map from (U, V) to every graph edge's
// conductance, rebuilt on each call.
func nodeJouleHeatMapOracle(op *extract.OperatingPoint, sheetOhms float64) []float64 {
	g := op.TG.G
	q := make([]float64, g.N())
	type key struct{ u, v int }
	gOf := map[key]float64{}
	for u := 0; u < g.N(); u++ {
		to, w := g.Adj(u)
		for k, v := range to {
			if u < v {
				gOf[key{u, v}] = w[k] / sheetOhms
			}
		}
	}
	for _, ec := range op.Edges {
		g := gOf[key{ec.U, ec.V}]
		if g <= 0 {
			continue
		}
		p := ec.Amps * ec.Amps / g
		q[ec.U] += p / 2
		q[ec.V] += p / 2
	}
	return q
}

// dcOperateEdgeList is DCOperate as it was before it stamped the
// Laplacian from the tile graph's own CSR: it copies the graph into an
// edge list scaled to siemens, lays the list out as a fresh adjacency
// (graph.FromEdges lays an edge list out exactly as the retired sparse
// edge-list constructor did) and takes the branch currents from the list.
// opt must be complete: the oracle applies no defaults.
func dcOperateEdgeList(shape geom.Region, source route.Terminal, loads []route.Terminal, totalA float64, opt extract.Options) (*extract.OperatingPoint, error) {
	terms := append([]route.Terminal{source}, loads...)
	tg, err := route.BuildTileGraph(shape, terms, opt.Pitch, opt.Pitch)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, 0, tg.G.M())
	for u := 0; u < tg.G.N(); u++ {
		to, w := tg.G.Adj(u)
		for k, v := range to {
			if u < v {
				edges = append(edges, graph.Edge{U: u, V: v, Weight: w[k] / opt.SheetOhms})
			}
		}
	}
	g, err := graph.FromEdges(tg.G.N(), edges)
	if err != nil {
		return nil, err
	}
	rowPtr, to, w := g.CSR()
	srcNode := tg.Terminals[0]
	lap, err := sparse.ReassembleLaplacian(nil, rowPtr, to, w, srcNode)
	if err != nil {
		return nil, err
	}
	var wsum float64
	for _, l := range loads {
		w := l.Current
		if w <= 0 {
			w = 1
		}
		wsum += w
	}
	inj := make([]float64, tg.G.N())
	inj[srcNode] = totalA
	for i, l := range loads {
		w := l.Current
		if w <= 0 {
			w = 1
		}
		inj[tg.Terminals[i+1]] -= totalA * w / wsum
	}
	v, _, err := lap.SolveCtx(context.Background(), inj, nil, nil)
	if err != nil {
		return nil, err
	}
	op := &extract.OperatingPoint{TG: tg, NodeDropV: make([]float64, tg.G.N())}
	for i, vi := range v {
		op.NodeDropV[i] = -vi
	}
	op.WorstLoad = -1
	for i := range loads {
		if d := op.NodeDropV[tg.Terminals[i+1]]; op.WorstLoad == -1 || d > op.MaxDropV {
			op.MaxDropV = d
			op.WorstLoad = i
		}
	}
	op.Edges = make([]extract.EdgeCurrent, len(edges))
	for k, e := range edges {
		i := e.Weight * (v[e.U] - v[e.V])
		op.Edges[k] = extract.EdgeCurrent{U: e.U, V: e.V, Amps: i}
		op.TotalPowerW += i * i / e.Weight
	}
	return op, nil
}

// railDCInput is one routed rail's distributed-load DC problem.
type railDCInput struct {
	name   string
	shape  geom.Region
	source route.Terminal
	loads  []route.Terminal
	totalA float64
	opt    extract.Options
}

// goldenRailInputs routes the two-rail board, Table IV row 0 of the
// three-rail board and the six-rail board, and assembles every rail's DC
// problem as sprout.RailDCCtx does: the PMIC group sources the net
// current, the other groups sink it, and the shape is the routed copper
// plus the terminal pads. The options are complete (pitch 5), so the
// edge-list oracle and DCOperate see the same values.
func goldenRailInputs(t *testing.T) []railDCInput {
	t.Helper()
	var out []railDCInput
	for _, tc := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"threerail", func() (*cases.CaseStudy, error) { return cases.ThreeRail(cases.Table4()[0]) }},
		{"sixrail", cases.SixRail},
	} {
		cs, err := tc.load()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
			Layer:       cs.RoutingLayer,
			Budgets:     cs.Budgets,
			Config:      cs.Config,
			FailFast:    true,
			SkipExtract: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		layer := cs.Board.Stackup.Layer(cs.RoutingLayer)
		for _, rail := range res.Rails {
			in := railDCInput{
				name:  tc.name + "/" + rail.Name,
				shape: rail.Route.Shape,
				opt: extract.Options{
					Pitch:     5,
					SheetOhms: layer.SheetResistance(),
					HeightUM:  cs.Board.Stackup.DistanceToPlaneUM(cs.RoutingLayer),
				},
			}
			sourced := false
			for _, g := range cs.Board.GroupsOn(rail.Net, cs.RoutingLayer) {
				term := route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current}
				in.shape = in.shape.Union(term.Shape)
				if g.Kind == board.KindPMIC && !sourced {
					in.source, sourced = term, true
					continue
				}
				in.loads = append(in.loads, term)
			}
			net, err := cs.Board.Net(rail.Net)
			if err != nil {
				t.Fatal(err)
			}
			in.totalA = net.Current
			if in.totalA <= 0 {
				in.totalA = 1
			}
			out = append(out, in)
		}
	}
	return out
}

// TestDCOperateMatchesEdgeListOracle pins the CSR-stamped operating point
// bit for bit to the edge-list oracle on every golden rail: node drops,
// branch currents, dissipated power and the worst load.
func TestDCOperateMatchesEdgeListOracle(t *testing.T) {
	inputs := goldenRailInputs(t)
	if len(inputs) != 2+3+6 {
		t.Fatalf("checked %d rails, want 11", len(inputs))
	}
	for _, in := range inputs {
		got, err := extract.DCOperate(context.Background(), in.shape, in.source, in.loads, in.totalA, in.opt)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		want, err := dcOperateEdgeList(in.shape, in.source, in.loads, in.totalA, in.opt)
		if err != nil {
			t.Fatalf("%s: oracle: %v", in.name, err)
		}
		if len(got.NodeDropV) != len(want.NodeDropV) || len(got.Edges) != len(want.Edges) {
			t.Fatalf("%s: %d nodes, %d edges; oracle %d, %d", in.name,
				len(got.NodeDropV), len(got.Edges), len(want.NodeDropV), len(want.Edges))
		}
		for i := range want.NodeDropV {
			if math.Float64bits(got.NodeDropV[i]) != math.Float64bits(want.NodeDropV[i]) {
				t.Fatalf("%s: node %d drop %v, oracle %v", in.name, i, got.NodeDropV[i], want.NodeDropV[i])
			}
		}
		for k, e := range want.Edges {
			if g := got.Edges[k]; g.U != e.U || g.V != e.V || math.Float64bits(g.Amps) != math.Float64bits(e.Amps) {
				t.Fatalf("%s: edge %d is %+v, oracle %+v", in.name, k, g, e)
			}
		}
		if math.Float64bits(got.TotalPowerW) != math.Float64bits(want.TotalPowerW) ||
			math.Float64bits(got.MaxDropV) != math.Float64bits(want.MaxDropV) || got.WorstLoad != want.WorstLoad {
			t.Fatalf("%s: power %v, drop %v at load %d; oracle %v, %v at %d", in.name,
				got.TotalPowerW, got.MaxDropV, got.WorstLoad, want.TotalPowerW, want.MaxDropV, want.WorstLoad)
		}
	}
}

// TestNodeJouleHeatMatchesMapOracle pins the heat vector bit for bit
// against the map lookup on the two-rail board's operating point: its
// first rail routed at pitch 5 and loaded with 4 A.
func TestNodeJouleHeatMatchesMapOracle(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	net := cs.Board.Nets[0]
	var terms []route.Terminal
	for _, g := range cs.Board.GroupsOn(net.ID, cs.RoutingLayer) {
		terms = append(terms, route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current})
	}
	res, err := route.RouteCtx(context.Background(), cs.Board.AvailableSpace(net.ID, cs.RoutingLayer), terms, route.Config{DX: 5, DY: 5, AreaMax: 6000})
	if err != nil {
		t.Fatal(err)
	}
	opt := extract.Options{Pitch: 5, SheetOhms: 0.0005, HeightUM: 100}
	op, err := extract.DCOperate(context.Background(), res.Shape, terms[0], terms[1:], 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Edges) != op.TG.G.M() || len(op.Edges) < 100 {
		t.Fatalf("operating point lists %d edges of %d", len(op.Edges), op.TG.G.M())
	}
	got, want := op.NodeJouleHeat(opt.SheetOhms), nodeJouleHeatMapOracle(op, opt.SheetOhms)
	heated := 0
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("node %d heat %v, map oracle %v", i, got[i], want[i])
		}
		if want[i] > 0 {
			heated++
		}
	}
	if heated < len(want)/2 {
		t.Fatalf("only %d of %d nodes heated", heated, len(want))
	}
}
