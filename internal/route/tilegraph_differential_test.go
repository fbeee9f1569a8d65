package route_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/geom"
	"sprout/internal/graph"
	"sprout/internal/route"
)

// sameTileGraph builds the tile graph with BuildTileGraph and with the
// original builder and fails unless both return the same graph — node
// order, areas, edge order and weight bits, terminals deeply equal, and
// each node's cell the same region — or the same error message. It
// reports whether the build succeeded.
func sameTileGraph(t testing.TB, name string, avail geom.Region, terms []route.Terminal, dx, dy int64) bool {
	t.Helper()
	want, werr := route.BuildTileGraphOracle(avail, terms, dx, dy)
	got, gerr := route.BuildTileGraph(avail, terms, dx, dy)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("%s: error %v, oracle %v", name, gerr, werr)
	}
	if werr != nil {
		return false
	}
	g, w := *got, *want
	g.Cells, w.Cells = nil, nil
	if !reflect.DeepEqual(g, w) || len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: tile graph differs from the original builder (%d vs %d nodes, %d vs %d edges)",
			name, got.G.N(), want.G.N(), got.G.M(), want.G.M())
	}
	for i := range got.Cells {
		if !geom.RegionFromRects(got.Cells[i]).Equal(geom.RegionFromRects(want.Cells[i])) {
			t.Fatalf("%s: node %d covers %v, the original builder's %v", name, i, got.Cells[i], want.Cells[i])
		}
	}
	return true
}

// railTerms lists a net's terminal groups on a layer as routing
// terminals, the way the board router does.
func railTerms(cs *cases.CaseStudy, net int) []route.Terminal {
	var terms []route.Terminal
	for _, g := range cs.Board.GroupsOn(cs.Board.Nets[net].ID, cs.RoutingLayer) {
		terms = append(terms, route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current})
	}
	return terms
}

// randomTileCase draws an available space, terminals and a tile pitch
// that exercise every branch of Alg. 1: a bounds origin away from zero
// (negative too), unequal tile sides, one-unit slivers and slots that
// split grid boxes into several pieces, terminals spanning several boxes,
// and every input error.
func randomTileCase(r *rand.Rand) (geom.Region, []route.Terminal, int64, int64) {
	ox, oy := int64(r.Intn(201)-100), int64(r.Intn(201)-100)
	w, h := int64(8+r.Intn(56)), int64(8+r.Intn(56))
	rnd := func(maxW, maxH int) geom.Rect {
		x, y := ox+int64(r.Intn(int(w))), oy+int64(r.Intn(int(h)))
		return geom.R(x, y, x+int64(1+r.Intn(maxW)), y+int64(1+r.Intn(maxH)))
	}
	adds := []geom.Rect{geom.R(ox, oy, ox+w, oy+h)}
	if r.Intn(3) == 0 { // a ragged union instead of a full frame
		adds = adds[:0]
		for k := 1 + r.Intn(6); k > 0; k-- {
			adds = append(adds, rnd(30, 30))
		}
	}
	for k := r.Intn(4); k > 0; k-- { // one-unit slivers
		if r.Intn(2) == 0 {
			adds = append(adds, rnd(1, 20))
		} else {
			adds = append(adds, rnd(20, 1))
		}
	}
	var cuts []geom.Rect
	for k := r.Intn(10); k > 0; k-- {
		switch r.Intn(3) {
		case 0:
			cuts = append(cuts, rnd(1, 40)) // one-unit vertical slot
		case 1:
			cuts = append(cuts, rnd(40, 1)) // one-unit horizontal slot
		default:
			cuts = append(cuts, rnd(10, 10))
		}
	}
	avail := geom.RegionFromRects(adds).Subtract(geom.RegionFromRects(cuts))
	if r.Intn(100) == 0 {
		avail = geom.EmptyRegion()
	}
	dx, dy := int64(1+r.Intn(10)), int64(1+r.Intn(10))
	if r.Intn(100) == 0 {
		dx = int64(-r.Intn(2))
	}
	nt := 2 + r.Intn(3)
	if r.Intn(50) == 0 {
		nt = r.Intn(2)
	}
	// Terminals mostly start inside the space: small pads, and often a
	// large first one that spans several boxes and contracts their pieces.
	rects := avail.Rects()
	var terms []route.Terminal
	for k := 0; k < nt; k++ {
		shape := geom.RegionFromRect(rnd(1+int(w)/3, 1+int(h)/3))
		if len(rects) > 0 && r.Intn(4) > 0 {
			a := rects[r.Intn(len(rects))]
			x, y := a.X0+r.Int63n(a.W()), a.Y0+r.Int63n(a.H())
			side := int64(1 + r.Intn(3))
			if k == 0 && r.Intn(2) == 0 {
				side = int64(4 + r.Intn(16))
			}
			shape = geom.RegionFromRect(geom.R(x, y, x+side, y+side))
		}
		switch r.Intn(60) {
		case 0:
			shape = geom.EmptyRegion()
		case 1:
			b := shape.Bounds()
			shape = geom.RegionFromRect(geom.R(b.X0+1000, b.Y0, b.X1+1000, b.Y1))
		}
		terms = append(terms, route.Terminal{Name: fmt.Sprintf("t%d", k), Shape: shape, Current: float64(r.Intn(3))})
	}
	return avail, terms, dx, dy
}

// randomAbuttingCase draws two terminals that meet along grid lines: A
// covers a block of whole boxes and B wraps it on the right and above, so
// their contracted nodes share one edge summed from many contacts. Slots
// through A split its boxes into pieces whose contacts to the right and
// above interleave, and pitches that are not powers of two make the
// weight bits depend on the order of that sum.
func randomAbuttingCase(r *rand.Rand) (geom.Region, []route.Terminal, int64, int64) {
	dx, dy := int64(3+r.Intn(6)), int64(3+r.Intn(6))
	ox, oy := int64(r.Intn(41)-20), int64(r.Intn(41)-20)
	nx, ny := int64(4+r.Intn(6)), int64(4+r.Intn(6))
	frame := geom.R(ox, oy, ox+nx*dx, oy+ny*dy)
	i1, j1 := 1+r.Int63n(nx-2), 1+r.Int63n(ny-2)
	i0, j0 := r.Int63n(i1), r.Int63n(j1)
	a := geom.R(ox+i0*dx, oy+j0*dy, ox+i1*dx, oy+j1*dy)
	b := geom.RegionFromRects([]geom.Rect{
		geom.R(a.X1, a.Y0, a.X1+dx*(1+r.Int63n(nx-i1)), a.Y1+dy),
		geom.R(a.X0, a.Y1, a.X1, a.Y1+dy),
	})
	var cuts []geom.Rect
	for k := 1 + r.Intn(6); k > 0; k-- {
		x, y := a.X0+1+r.Int63n(a.W()), a.Y0+1+r.Int63n(a.H())
		if r.Intn(2) == 0 {
			cuts = append(cuts, geom.R(x, y-1-r.Int63n(2*dy), x+1, a.Y1))
		} else {
			cuts = append(cuts, geom.R(x-1-r.Int63n(2*dx), y, a.X1, y+1))
		}
	}
	avail := geom.RegionFromRect(frame).Subtract(geom.RegionFromRects(cuts))
	terms := []route.Terminal{
		{Name: "A", Shape: geom.RegionFromRect(a), Current: 2},
		{Name: "B", Shape: b, Current: 1},
	}
	return avail, terms, dx, dy
}

// tileSpace is one space a golden board tiles: a rail's available space at
// the route pitch, or the extraction re-tile of its routed rail.
type tileSpace struct {
	name   string
	avail  geom.Region
	terms  []route.Terminal
	dx, dy int64
	routed *route.TileGraph // the rail's routed tile graph; nil for a re-tile
}

// goldenTileSpaces routes the golden boards and lists the spaces they tile:
// each rail's space rebuilt as the board router builds it, and the
// extraction re-tile of the routed rail.
func goldenTileSpaces(t *testing.T) []tileSpace {
	t.Helper()
	var spaces []tileSpace
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
		// Rebuild each rail's space as the board router does: Eq. 1
		// minus the clearance-buffered copper of the rails before it.
		copper := geom.EmptyRegion()
		for _, rail := range res.Rails {
			terms := railTerms(cs, int(rail.Net))
			avail := cs.Board.AvailableSpace(rail.Net, cs.RoutingLayer).
				Subtract(copper.Bloat(cs.Board.Rules.Clearance))
			name := tc.name + "/" + rail.Name
			spaces = append(spaces, tileSpace{name, avail, terms, cs.Config.DX, cs.Config.DY, rail.Route.Graph})
			// The extraction re-tile: routed copper plus terminal pads
			// at the default extraction pitch.
			shape := rail.Route.Shape
			for _, term := range terms {
				shape = shape.Union(term.Shape)
			}
			spaces = append(spaces, tileSpace{name + "/extract", shape, terms, 5, 5, nil})
			copper = copper.Union(rail.Route.Shape)
		}
	}
	return spaces
}

// TestBuildTileGraphMatchesOracle checks that the single-scan Alg. 1
// builder returns exactly the original builder's graph on every rail space
// of the golden boards, on the extraction re-tiles of their routed rails,
// and on seeded random spaces covering every branch and error.
func TestBuildTileGraphMatchesOracle(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		for _, sp := range goldenTileSpaces(t) {
			sameTileGraph(t, sp.name, sp.avail, sp.terms, sp.dx, sp.dy)
			if sp.routed == nil {
				continue
			}
			tg, err := route.BuildTileGraph(sp.avail, sp.terms, sp.dx, sp.dy)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tg, sp.routed) {
				t.Fatalf("%s: rebuilt rail space does not reproduce the routed tile graph", sp.name)
			}
		}
		avail, terms := cases.Fig8Scene()
		sameTileGraph(t, "fig8", avail, terms, 4, 4)
	})

	t.Run("abutting", func(t *testing.T) {
		r := rand.New(rand.NewSource(1974))
		for i := 0; i < 500; i++ {
			avail, terms, dx, dy := randomAbuttingCase(r)
			if !sameTileGraph(t, fmt.Sprintf("case %d", i), avail, terms, dx, dy) {
				t.Fatalf("case %d: abutting terminals must tile", i)
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(2021))
		const n = 4000
		built, split, contracted := 0, 0, 0
		errs := map[string]int{}
		for i := 0; i < n; i++ {
			avail, terms, dx, dy := randomTileCase(r)
			if sameTileGraph(t, fmt.Sprintf("case %d", i), avail, terms, dx, dy) {
				built++
				pieces, s := route.TileCounts(avail, dx, dy)
				if s > 0 {
					split++
				}
				if tg, _ := route.BuildTileGraph(avail, terms, dx, dy); tg.G.N() < pieces {
					contracted++
				}
				continue
			}
			_, err := route.BuildTileGraph(avail, terms, dx, dy)
			msg := err.Error()
			for _, kind := range []string{"must be >= 1", "need at least 2", "empty available space",
				"has empty shape", "overlaps no routable tile", "share a tile"} {
				if strings.Contains(msg, kind) {
					errs[kind]++
				}
			}
		}
		t.Logf("%d cases: %d built (%d with split boxes, %d with contracted pieces), errors %v",
			n, built, split, contracted, errs)
		if built < 2000 || split < built/2 || contracted < built/4 || len(errs) != 6 {
			t.Fatalf("random cases miss a branch: %d built, %d split, %d contracted, errors %v",
				built, split, contracted, errs)
		}
	})
}

// TestTilingMatchesPerBoxReference checks that the tiling returns the
// per-box reference's fragment grouping and box starts on every golden
// rail space and extraction re-tile, and on seeded random spaces, half
// of which split boxes into several pieces.
func TestTilingMatchesPerBoxReference(t *testing.T) {
	same := func(name string, avail geom.Region, dx, dy int64) {
		t.Helper()
		got, want := route.Tiling(avail, dx, dy)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tiling differs from the per-box reference (%d vs %d pieces)",
				name, len(got.RectStart)-1, len(want.RectStart)-1)
		}
	}
	for _, sp := range goldenTileSpaces(t) {
		same(sp.name, sp.avail, sp.dx, sp.dy)
	}
	r := rand.New(rand.NewSource(32))
	split := 0
	for i := 0; i < 2000; i++ {
		avail, _, dx, dy := randomTileCase(r)
		if avail.Empty() || dx < 1 || dy < 1 {
			continue
		}
		same(fmt.Sprintf("case %d", i), avail, dx, dy)
		if _, s := route.TileCounts(avail, dx, dy); s > 0 {
			split++
		}
	}
	if split < 500 {
		t.Fatalf("only %d random spaces split a box", split)
	}
}

// TestContactsVisitInSumOrder checks the order BuildTileGraph sums
// parallel contacts in: tiling.contacts reports every contact of positive
// length exactly once, in strictly ascending (pa, up, pb) order, on seeded
// random spaces, many with split boxes, and on abutting terminals.
func TestContactsVisitInSumOrder(t *testing.T) {
	check := func(name string, avail geom.Region, dx, dy int64) {
		t.Helper()
		got, want := route.Contacts(avail, dx, dy)
		for k := 1; k < len(got); k++ {
			a, b := got[k-1], got[k]
			if a.PA > b.PA || a.PA == b.PA && (a.Up && !b.Up || a.Up == b.Up && a.PB >= b.PB) {
				t.Fatalf("%s: contact %+v visited after %+v", name, b, a)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d contacts visited, %d measured pairwise:\n%v\n%v", name, len(got), len(want), got, want)
		}
	}
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 500; i++ {
		avail, _, dx, dy := randomTileCase(r)
		if avail.Empty() || dx < 1 || dy < 1 {
			continue
		}
		check(fmt.Sprintf("case %d", i), avail, dx, dy)
	}
	for i := 0; i < 100; i++ {
		avail, _, dx, dy := randomAbuttingCase(r)
		check(fmt.Sprintf("abutting %d", i), avail, dx, dy)
	}
}

// FuzzBuildTileGraph drives the same comparison with fuzzer-chosen seeds
// and tile pitches, and checks that every row of a built graph strictly
// ascends.
func FuzzBuildTileGraph(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4))
	f.Add(int64(2), uint8(3), uint8(7))
	f.Add(int64(3), uint8(1), uint8(1))
	f.Add(int64(4), uint8(11), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, dx, dy uint8) {
		avail, terms, _, _ := randomTileCase(rand.New(rand.NewSource(seed)))
		name := fmt.Sprintf("seed %d", seed)
		if sameTileGraph(t, name, avail, terms, int64(dx%16), int64(dy%16)) {
			tg, err := route.BuildTileGraph(avail, terms, int64(dx%16), int64(dy%16))
			if err != nil {
				t.Fatal(err)
			}
			adjacencyAscends(t, name, tg)
		}
	})
}

// adjacencyAscends fails unless every row of tg.G strictly ascends: the
// invariant documented on TileGraph.G.
func adjacencyAscends(t testing.TB, name string, tg *route.TileGraph) {
	t.Helper()
	for u := 0; u < tg.G.N(); u++ {
		to, _ := tg.G.Adj(u)
		for k := 1; k < len(to); k++ {
			if to[k] <= to[k-1] {
				t.Fatalf("%s: row of node %d lists %d after %d", name, u, to[k], to[k-1])
			}
		}
	}
}

// TestTileGraphAdjacencyAscends pins the invariant the solver session's
// bit-identity rests on (TileGraph.G): every adjacency list strictly
// ascends on each golden rail space at the route pitch and on each
// extraction re-tile at pitch 5.
func TestTileGraphAdjacencyAscends(t *testing.T) {
	spaces := goldenTileSpaces(t)
	for _, sp := range spaces {
		tg, err := route.BuildTileGraph(sp.avail, sp.terms, sp.dx, sp.dy)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		adjacencyAscends(t, sp.name, tg)
	}
	if len(spaces) != 2*(2+3+6) {
		t.Fatalf("checked %d spaces, want one route and one extraction space per golden rail", len(spaces))
	}
}

// TestTileGraphEdgesAscend pins what a row walk over a tile graph rests
// on: on every golden tile graph, taking each edge from its smaller
// endpoint's row lists every edge once, in strictly ascending (U, V)
// order.
func TestTileGraphEdgesAscend(t *testing.T) {
	for _, sp := range goldenTileSpaces(t) {
		tg, err := route.BuildTileGraph(sp.avail, sp.terms, sp.dx, sp.dy)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		var prev [2]int
		m := 0
		for u := 0; u < tg.G.N(); u++ {
			to, _ := tg.G.Adj(u)
			for _, v := range to {
				if v <= u {
					continue
				}
				if m > 0 && (prev[0] > u || prev[0] == u && prev[1] >= v) {
					t.Fatalf("%s: edge (%d,%d) follows %v", sp.name, u, v, prev)
				}
				prev = [2]int{u, v}
				m++
			}
		}
		if m != tg.G.M() {
			t.Fatalf("%s: the row walk lists %d edges, M() = %d", sp.name, m, tg.G.M())
		}
	}
}

// TestTerminalPathsMatchBellmanFord checks the seed's cost rule on the
// two-rail and six-rail tile graphs against an explicitly built 1/w cost
// graph (zero conductances left out): TerminalPaths must return the very
// paths Dijkstra finds on that graph, and each path must be a walk over
// its edges whose cost equals the Bellman-Ford distance between the
// pair's terminals.
func TestTerminalPathsMatchBellmanFord(t *testing.T) {
	checked := 0
	for _, sp := range goldenTileSpaces(t) {
		if sp.routed == nil || !strings.HasPrefix(sp.name, "tworail/") && !strings.HasPrefix(sp.name, "sixrail/") {
			continue
		}
		checked++
		tg := sp.routed
		var costEdges []graph.Edge
		edgeCost := map[[2]int]float64{}
		for u := 0; u < tg.G.N(); u++ {
			to, w := tg.G.Adj(u)
			for k, v := range to {
				if u < v && w[k] > 0 {
					costEdges = append(costEdges, graph.Edge{U: u, V: v, Weight: 1 / w[k]})
					edgeCost[[2]int{u, v}] = 1 / w[k]
				}
			}
		}
		cost, err := graph.FromEdges(tg.G.N(), costEdges)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := tg.TerminalPaths()
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		p := 0
		for i, src := range tg.Terminals {
			want, err := cost.ShortestPaths(src, tg.Terminals[i+1:], func(w float64) float64 { return w })
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			dist := bellmanFord(tg.G.N(), costEdges, src)
			for j, dst := range tg.Terminals[i+1:] {
				path := paths[p]
				p++
				if !reflect.DeepEqual(path, want[j]) {
					t.Fatalf("%s: path %d->%d differs from Dijkstra on the 1/w graph", sp.name, i, i+1+j)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("%s: path %d->%d runs %d..%d", sp.name, i, i+1+j, path[0], path[len(path)-1])
				}
				sum := 0.0
				for k := 1; k < len(path); k++ {
					c, ok := edgeCost[[2]int{min(path[k-1], path[k]), max(path[k-1], path[k])}]
					if !ok {
						t.Fatalf("%s: path %d->%d steps %d-%d off the cost graph", sp.name, i, i+1+j, path[k-1], path[k])
					}
					sum += c
				}
				if math.Abs(sum-dist[dst]) > 1e-9*dist[dst] {
					t.Fatalf("%s: path %d->%d costs %v, Bellman-Ford distance %v", sp.name, i, i+1+j, sum, dist[dst])
				}
			}
		}
		if p != len(paths) {
			t.Fatalf("%s: %d terminal paths, want %d", sp.name, len(paths), p)
		}
	}
	if checked != 2+6 {
		t.Fatalf("checked %d rails, want the two-rail and six-rail rails", checked)
	}
}

// bellmanFord returns the single-source distances over the undirected
// edges by relaxation to a fixed point: the slower oracle paper §II-C
// cites next to Dijkstra.
func bellmanFord(n int, edges []graph.Edge, src int) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if d := dist[e.U] + e.Weight; d < dist[e.V] {
				dist[e.V], changed = d, true
			}
			if d := dist[e.V] + e.Weight; d < dist[e.U] {
				dist[e.U], changed = d, true
			}
		}
	}
	return dist
}
