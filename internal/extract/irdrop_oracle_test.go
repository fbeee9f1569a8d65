package extract

import (
	"math"
	"testing"

	"sprout/internal/cases"
	"sprout/internal/route"
)

// nodeJouleHeatMapOracle is NodeJouleHeat as it read each edge's
// conductance before: through a map from (U, V) to every graph edge's
// conductance, rebuilt on each call.
func (op *OperatingPoint) nodeJouleHeatMapOracle(sheetOhms float64) []float64 {
	q := make([]float64, op.TG.G.N())
	type key struct{ u, v int }
	gOf := map[key]float64{}
	for _, e := range op.TG.G.Edges() {
		gOf[key{e.U, e.V}] = e.Weight / sheetOhms
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
	res, err := route.Route(cs.Board.AvailableSpace(net.ID, cs.RoutingLayer), terms, route.Config{DX: 5, DY: 5, AreaMax: 6000})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Pitch: 5, SheetOhms: 0.0005, HeightUM: 100}
	op, err := DCOperate(res.Shape, terms[0], terms[1:], 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Edges) != op.TG.G.M() || len(op.Edges) < 100 {
		t.Fatalf("operating point lists %d edges of %d", len(op.Edges), op.TG.G.M())
	}
	got, want := op.NodeJouleHeat(opt.SheetOhms), op.nodeJouleHeatMapOracle(opt.SheetOhms)
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
