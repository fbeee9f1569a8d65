package route

import (
	"context"
	"math"
	"sync"
	"testing"

	"sprout/internal/geom"
)

// obstacleSpace builds a 100x60 space with a central blockage and three
// terminals, echoing the paper's Fig. 8 demonstration scene.
func obstacleSpace(t *testing.T) (geom.Region, []Terminal) {
	t.Helper()
	avail := geom.RegionFromRect(geom.R(0, 0, 100, 60)).
		Subtract(geom.RegionFromRect(geom.R(40, 20, 60, 40)))
	terms := []Terminal{
		{Name: "PMIC", Shape: geom.RegionFromRect(geom.R(0, 25, 5, 35)), Current: 4},
		{Name: "BGA1", Shape: geom.RegionFromRect(geom.R(95, 5, 100, 15)), Current: 2},
		{Name: "BGA2", Shape: geom.RegionFromRect(geom.R(95, 45, 100, 55)), Current: 2},
	}
	return avail, terms
}

func TestSeedConnectsTerminals(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	if !tg.TerminalsConnected(members) {
		t.Fatal("seed must connect all terminals")
	}
	for _, term := range tg.Terminals {
		if !members[term] {
			t.Fatal("terminals must be members of the seed")
		}
	}
	// The seed must be a small fraction of the space.
	if a := tg.MembersArea(members); a >= avail.Area()/2 {
		t.Fatalf("seed area %d suspiciously large vs space %d", a, avail.Area())
	}
}

func TestSeedFillsVoids(t *testing.T) {
	// A ring-shaped seed would have a void; build a space where paths
	// naturally enclose a pocket: square with slot obstacle in the middle
	// bottom, terminals at three corners.
	avail := geom.RegionFromRect(geom.R(0, 0, 60, 60)).
		Subtract(geom.RegionFromRect(geom.R(25, 25, 35, 35)))
	terms := []Terminal{
		{Name: "A", Shape: geom.RegionFromRect(geom.R(0, 0, 5, 5))},
		{Name: "B", Shape: geom.RegionFromRect(geom.R(55, 0, 60, 5))},
		{Name: "C", Shape: geom.RegionFromRect(geom.R(55, 55, 60, 60))},
		{Name: "D", Shape: geom.RegionFromRect(geom.R(0, 55, 5, 60))},
	}
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	// Any interior hole in the member shape must be the blockage itself,
	// not routable void (Alg. 2 produces a voidless subgraph).
	shape := tg.Union(members)
	frame := shape.Bounds()
	for _, comp := range geom.RegionFromRect(frame).Subtract(shape).Components() {
		if touchesFrame(comp, frame) {
			continue
		}
		// Interior pocket: must not contain routable space.
		if comp.Overlaps(avail) {
			t.Fatalf("voidless seed violated: routable pocket %v left unfilled", comp.Bounds())
		}
	}
}

func TestNodeCurrentsSeriesChain(t *testing.T) {
	// 5 tiles in a row, terminals at both ends: every node carries the
	// same current, and pair resistance equals the series chain.
	avail := geom.RegionFromRect(geom.R(0, 0, 50, 10))
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 3, 3)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(47, 0, 50, 3)), Current: 1},
	}
	tg, err := BuildTileGraph(avail, terms, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]bool, tg.G.N())
	for i := range members {
		members[i] = true
	}
	m, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 nodes, 4 unit-conductance edges in series: R = 4.
	if math.Abs(m.Resistance-4) > 1e-6 {
		t.Fatalf("chain resistance = %g, want 4", m.Resistance)
	}
	if len(m.PairResistance) != 1 || math.Abs(m.PairResistance[0]-4) > 1e-6 {
		t.Fatalf("pair resistance = %v, want [4]", m.PairResistance)
	}
	// End nodes see current 1 (one incident edge), middle nodes 2.
	s, tt := tg.Terminals[0], tg.Terminals[1]
	for id := 0; id < tg.G.N(); id++ {
		want := 2.0
		if id == s || id == tt {
			want = 1.0
		}
		if math.Abs(m.NodeCurrent[id]-want) > 1e-6 {
			t.Fatalf("node %d current = %g, want %g", id, m.NodeCurrent[id], want)
		}
	}
}

func TestNodeCurrentsErrors(t *testing.T) {
	tg, _ := twoTerm(t, 40, 20, 10)
	bad := make([]bool, 3)
	if _, err := tg.NodeCurrentsCtx(context.Background(), bad, nil); err == nil {
		t.Fatal("wrong mask length must error")
	}
	none := make([]bool, tg.G.N())
	if _, err := tg.NodeCurrentsCtx(context.Background(), none, nil); err == nil {
		t.Fatal("terminals outside subgraph must error")
	}
	// Terminals present but disconnected.
	only := make([]bool, tg.G.N())
	only[tg.Terminals[0]] = true
	only[tg.Terminals[1]] = true
	if _, err := tg.NodeCurrentsCtx(context.Background(), only, nil); err == nil {
		t.Fatal("disconnected terminals must error")
	}
}

// TestRunPairSolvesWorkerIndexBelowCount checks that the pool hands every
// solve a worker index below the count it was given, whatever GOMAXPROCS
// reads at the time, and runs each pair exactly once.
func TestRunPairSolvesWorkerIndexBelowCount(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{1, 1}, {1, 4}, {3, 8}, {5, 2}, {8, 8}, {16, 3}} {
		var mu sync.Mutex
		runs := make([]int, c.n)
		err := runPairSolves(context.Background(), c.n, c.workers, func(w, pi int) error {
			mu.Lock()
			defer mu.Unlock()
			if w < 0 || w >= c.workers {
				t.Errorf("n=%d workers=%d: worker index %d", c.n, c.workers, w)
			}
			runs[pi]++
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		for pi, k := range runs {
			if k != 1 {
				t.Fatalf("n=%d workers=%d: pair %d solved %d times", c.n, c.workers, pi, k)
			}
		}
	}
}

func TestSmartGrowReducesResistance(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSolveCache()
	m, err := tg.NodeCurrentsCtx(context.Background(), members, warm)
	if err != nil {
		t.Fatal(err)
	}
	prev := coldResistance(t, tg, members)
	for i := 0; i < 5; i++ {
		var added []int
		added, m, err = tg.SmartGrowCtx(context.Background(), members, m, 6, warm)
		if err != nil {
			t.Fatal(err)
		}
		if len(added) == 0 {
			break
		}
		cur := coldResistance(t, tg, members)
		// Rayleigh monotonicity: adding conductors can only help.
		if cur > prev+1e-9 {
			t.Fatalf("grow iteration %d increased resistance %g -> %g", i, prev, cur)
		}
		prev = cur
	}
}

func TestSmartGrowPrefersHighCurrentRegions(t *testing.T) {
	// With a narrow neck carrying all current, growth should widen the
	// neck region rather than scatter.
	avail := geom.RegionFromRect(geom.R(0, 0, 100, 30))
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 10, 5, 20)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(95, 10, 100, 20)), Current: 1},
	}
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	added, _, err := tg.SmartGrowCtx(context.Background(), members, m, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 10 {
		t.Fatalf("added %d, want 10", len(added))
	}
	// Every added node must touch the existing corridor (y within one
	// tile of the seed row).
	for _, id := range added {
		b := tg.Bounds(id)
		if b.Y0 > 25 || b.Y1 < 5 {
			t.Fatalf("added node %d at %v far from the current corridor", id, b)
		}
	}
}

func TestSmartRefineKeepsAreaAndConnectivity(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, m, err = tg.SmartGrowCtx(context.Background(), members, m, 30, nil); err != nil {
		t.Fatal(err)
	}
	beforeCount := MemberCount(members)
	res, err := tg.SmartRefineCtx(context.Background(), members, m, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tg.TerminalsConnected(members) {
		t.Fatal("refine must keep terminals connected")
	}
	if got := MemberCount(members); got != beforeCount {
		t.Fatalf("refine changed node count %d -> %d", beforeCount, got)
	}
	if res.Resistance <= 0 {
		t.Fatalf("refine resistance = %g, want > 0", res.Resistance)
	}
	// The returned metrics are those of the mask refine left behind: with
	// no warm cache both sides solve cold, so they agree bit for bit.
	want := coldResistance(t, tg, members)
	if res.Resistance != want {
		t.Fatalf("refine returned resistance %x, mask it left scores %x", res.Resistance, want)
	}
}

func TestRemoveLowCurrentNeverRemovesTerminals(t *testing.T) {
	tg, _ := twoTerm(t, 60, 20, 10)
	members := make([]bool, tg.G.N())
	for i := range members {
		members[i] = true
	}
	m, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	tg.removeLowCurrent(new(connScratch), members, m.NodeCurrent, tg.G.N())
	for _, term := range tg.Terminals {
		if !members[term] {
			t.Fatal("terminal removed")
		}
	}
	if !tg.TerminalsConnected(members) {
		t.Fatal("terminals disconnected")
	}
}

func TestDilateErode(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	areaBefore := tg.MembersArea(members)
	n := tg.Dilate(members)
	if n == 0 {
		t.Fatal("dilate must add boundary nodes")
	}
	if tg.MembersArea(members) <= areaBefore {
		t.Fatal("dilate must increase area")
	}
	m, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	eroded, err := tg.ErodeCtx(context.Background(), members, m, areaBefore, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := coldResistance(t, tg, members)
	if eroded.Resistance != want {
		t.Fatalf("erode returned resistance %x, mask it left scores %x", eroded.Resistance, want)
	}
	if got := tg.MembersArea(members); got > areaBefore {
		t.Fatalf("erode left area %d > budget %d", got, areaBefore)
	}
	if !tg.TerminalsConnected(members) {
		t.Fatal("erode disconnected terminals")
	}
}

func TestRouteEndToEnd(t *testing.T) {
	avail, terms := obstacleSpace(t)
	res, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5, DY: 5, AreaMax: 3200, ReheatDilations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shape.Empty() {
		t.Fatal("route must produce copper")
	}
	if res.Shape.Area() > 3200 {
		t.Fatalf("area %d exceeds budget 3200", res.Shape.Area())
	}
	// Copper must stay inside the available space.
	if !res.Shape.Subtract(avail).Empty() {
		t.Fatal("copper escaped the available space")
	}
	// Copper must reach every terminal.
	for _, term := range terms {
		if !res.Shape.Overlaps(term.Shape) {
			t.Fatalf("copper misses terminal %s", term.Name)
		}
	}
	if res.Resistance <= 0 {
		t.Fatalf("resistance = %g", res.Resistance)
	}
	// Trace must contain all stages in order.
	stages := map[string]bool{}
	for _, rec := range res.Trace {
		stages[rec.Stage] = true
	}
	for _, want := range []string{"seed", "grow", "refine", "dilate", "erode"} {
		if !stages[want] {
			t.Fatalf("trace missing stage %q: %+v", want, stages)
		}
	}
	if res.Trace[0].Stage != "seed" {
		t.Fatal("first trace record must be seed")
	}
	// Final resistance must not exceed the seed resistance.
	if res.Resistance > res.Trace[0].Resistance+1e-9 {
		t.Fatalf("pipeline worsened resistance: seed %g final %g",
			res.Trace[0].Resistance, res.Resistance)
	}
}

func TestRouteMoreAreaLowerResistance(t *testing.T) {
	// The heart of Fig. 12a: larger area budget, lower resistance.
	avail, terms := obstacleSpace(t)
	var prev float64
	for i, budget := range []int64{2500, 3500, 5000} {
		res, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5, DY: 5, AreaMax: budget})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Resistance > prev*1.02 {
			t.Fatalf("budget %d resistance %g not below previous %g", budget, res.Resistance, prev)
		}
		prev = res.Resistance
	}
}

func TestRouteRespectsAreaBudgetTightly(t *testing.T) {
	avail, terms := obstacleSpace(t)
	res, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5, DY: 5, AreaMax: 2800})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Shape.Area()
	if got > 2800+25*25 { // one tile of overshoot tolerance
		t.Fatalf("area %d far above budget 2800", got)
	}
	if got < 2300 {
		t.Fatalf("area %d far below budget 2800 (under-grown)", got)
	}
}

func TestRouteSeedExceedsBudgetError(t *testing.T) {
	avail, terms := obstacleSpace(t)
	if _, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5, DY: 5, AreaMax: 10}); err == nil {
		t.Fatal("impossible budget must error")
	}
}

func TestRouteDefaultsApplied(t *testing.T) {
	avail, terms := obstacleSpace(t)
	res, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5, DY: 5})
	if err != nil {
		t.Fatal(err)
	}
	seedArea := res.Trace[0].Area
	if res.Shape.Area() > 4*seedArea+600 {
		t.Fatalf("default budget should be ~4x seed area: got %d vs seed %d",
			res.Shape.Area(), seedArea)
	}
}

// coldResistance scores members on a throwaway solve session.
func coldResistance(t *testing.T, tg *TileGraph, members []bool) float64 {
	t.Helper()
	m, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m.Resistance
}
