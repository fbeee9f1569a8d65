package sprout

// Resume-equivalence: routing on top of a memoized prefix snapshot must
// equal routing the same order from scratch, and extending a snapshot
// must never mutate it. These are the two properties the parallel
// explorer's correctness rests on (DESIGN "Exploration scaling"); they
// are asserted here directly against the internal routeState API, with a
// fuzz harness exercising snapshot reuse across diverging suffixes.

import (
	"context"
	"fmt"
	"testing"

	"sprout/internal/board"
	"sprout/internal/geom"
)

// resumeBoard builds a three-net board where the nets compete for a
// narrow channel, so routing order genuinely changes the polygons — a
// board where snapshot reuse would be trivially correct proves nothing.
func resumeBoard(t testing.TB) *board.Board {
	t.Helper()
	stack := Stackup{Layers: []Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := DesignRules{Clearance: 2, ViaCost: 5}
	b, err := NewBoard("resume", geom.R(0, 0, 200, 160), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	// A wall with one 40-wide channel: whoever routes first claims it.
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(90, 0, 110, 55))); err != nil {
		t.Fatal(err)
	}
	if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(90, 95, 110, 160))); err != nil {
		t.Fatal(err)
	}
	addPair := func(name string, y int64) {
		id := b.AddNet(name, 3, 5)
		for _, g := range []struct {
			n string
			k board.TerminalKind
			r geom.Rect
		}{
			{"s", board.KindPMIC, geom.R(2, y, 10, y+12)},
			{"t", board.KindBGA, geom.R(190, y, 198, y+12)},
		} {
			if err := b.AddGroup(TerminalGroup{
				Name: g.n, Kind: g.k, Net: id, Layer: 1, Current: 1,
				Pads: []geom.Region{geom.RegionFromRect(g.r)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	addPair("A", 52)
	addPair("B", 68)
	addPair("C", 84)
	return b
}

func resumeOptions() RouteOptions {
	return RouteOptions{
		Layer:    1,
		Budgets:  map[board.NetID]int64{0: 2400, 1: 2400, 2: 2400},
		Config:   RouteConfig{DX: 5, DY: 5},
		FailFast: true,
	}
}

// routeChain routes an order by chaining routeNext from the empty
// snapshot, returning every intermediate snapshot (index i = first i
// nets routed).
func routeChain(t testing.TB, run *boardRun, order []board.NetID) []*routeState {
	t.Helper()
	states := []*routeState{newRouteState()}
	for _, id := range order {
		n, err := run.b.Net(id)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := run.routeNext(context.Background(), states[len(states)-1], n, nil)
		if err != nil {
			t.Fatalf("routeNext net %s: %v", n.Name, err)
		}
		states = append(states, next)
	}
	return states
}

// sameRails asserts two snapshots carry bit-identical rail results.
func sameRails(t testing.TB, label string, a, b *routeState) {
	t.Helper()
	if len(a.rails) != len(b.rails) {
		t.Fatalf("%s: %d rails vs %d", label, len(a.rails), len(b.rails))
	}
	for i := range a.rails {
		x, y := a.rails[i], b.rails[i]
		if x.Net != y.Net || x.Name != y.Name {
			t.Fatalf("%s: rail[%d] %s vs %s", label, i, x.Name, y.Name)
		}
		if (x.Route == nil) != (y.Route == nil) {
			t.Fatalf("%s: rail[%d] %s route presence differs", label, i, x.Name)
		}
		if x.Route != nil {
			if !x.Route.Shape.Equal(y.Route.Shape) {
				t.Fatalf("%s: rail[%d] %s polygon differs", label, i, x.Name)
			}
			if x.Route.Resistance != y.Route.Resistance {
				t.Fatalf("%s: rail[%d] %s resistance %v vs %v",
					label, i, x.Name, x.Route.Resistance, y.Route.Resistance)
			}
		}
		if (x.Extract == nil) != (y.Extract == nil) {
			t.Fatalf("%s: rail[%d] %s extract presence differs", label, i, x.Name)
		}
		if x.Extract != nil && x.Extract.ResistanceOhms != y.Extract.ResistanceOhms {
			t.Fatalf("%s: rail[%d] %s extraction %v vs %v",
				label, i, x.Name, x.Extract.ResistanceOhms, y.Extract.ResistanceOhms)
		}
	}
	if !a.sproutCopper.Equal(b.sproutCopper) {
		t.Fatalf("%s: claimed copper differs", label)
	}
}

// snapshotFingerprint captures what the immutability rule forbids
// changing: the rail count and the claimed copper regions.
type snapshotFingerprint struct {
	rails        int
	sproutCopper geom.Region
	manualCopper geom.Region
}

func fingerprint(s *routeState) snapshotFingerprint {
	return snapshotFingerprint{rails: len(s.rails), sproutCopper: s.sproutCopper, manualCopper: s.manualCopper}
}

func (f snapshotFingerprint) check(t testing.TB, label string, s *routeState) {
	t.Helper()
	if len(s.rails) != f.rails {
		t.Fatalf("%s: snapshot mutated: rails %d -> %d", label, f.rails, len(s.rails))
	}
	if !s.sproutCopper.Equal(f.sproutCopper) || !s.manualCopper.Equal(f.manualCopper) {
		t.Fatalf("%s: snapshot mutated: claimed copper changed", label)
	}
}

// TestResumeEquivalence routes every suffix of every 3-net permutation
// from a shared prefix snapshot and from scratch; the results must be
// bit-identical, and extending a snapshot must leave it untouched.
func TestResumeEquivalence(t *testing.T) {
	b := resumeBoard(t)
	opt := resumeOptions()
	run, err := newBoardRun(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	orders := lexPermutations([]board.NetID{0, 1, 2}, 0)
	for _, order := range orders {
		scratch := routeChain(t, run, order)
		full := scratch[len(scratch)-1]
		for split := 1; split < len(order); split++ {
			// Resume from the prefix snapshot of length `split`.
			prefix := scratch[split]
			fp := fingerprint(prefix)
			state := prefix
			for _, id := range order[split:] {
				n, err := b.Net(id)
				if err != nil {
					t.Fatal(err)
				}
				state, _, err = run.routeNext(context.Background(), state, n, nil)
				if err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("order %v split %d", order, split)
			sameRails(t, label, full, state)
			fp.check(t, label, prefix)
		}
	}
}

// TestResumeMatchesRouteBoard ties the internal chain to the public
// API: chaining routeNext must give exactly what RouteBoardCtx returns
// for the same order.
func TestResumeMatchesRouteBoard(t *testing.T) {
	b := resumeBoard(t)
	opt := resumeOptions()
	run, err := newBoardRun(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	order := []board.NetID{2, 0, 1}
	chain := routeChain(t, run, order)
	final := chain[len(chain)-1]

	ropt := opt
	ropt.Order = order
	res, err := RouteBoardCtx(context.Background(), b, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != len(final.rails) {
		t.Fatalf("rails: %d vs %d", len(res.Rails), len(final.rails))
	}
	for i := range res.Rails {
		if !res.Rails[i].Route.Shape.Equal(final.rails[i].Route.Shape) {
			t.Fatalf("rail[%d] %s polygon differs from RouteBoardCtx", i, res.Rails[i].Name)
		}
		if res.Rails[i].Route.Resistance != final.rails[i].Route.Resistance {
			t.Fatalf("rail[%d] %s resistance differs from RouteBoardCtx", i, res.Rails[i].Name)
		}
	}
}

// FuzzResumeEquivalence drives snapshot reuse across diverging suffixes:
// a shared prefix snapshot is extended by two different suffix orders,
// and each result must match its from-scratch chain. The seeds cover
// both divergence points of a 3-net board.
func FuzzResumeEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(1))
	f.Add(uint8(2), uint8(4))
	f.Add(uint8(1), uint8(5))
	b := resumeBoard(f)
	opt := resumeOptions()
	run, err := newBoardRun(b, opt)
	if err != nil {
		f.Fatal(err)
	}
	orders := lexPermutations([]board.NetID{0, 1, 2}, 0)
	// Snapshots are deterministic, so from-scratch chains can be computed
	// once and reused across fuzz executions.
	chains := make([][]*routeState, len(orders))
	for i, order := range orders {
		chains[i] = routeChain(f, run, order)
	}
	f.Fuzz(func(t *testing.T, a, c uint8) {
		oa, oc := orders[int(a)%len(orders)], orders[int(c)%len(orders)]
		// Find the longest common prefix of the two orders and branch both
		// suffixes off the first order's snapshot at that point.
		split := 0
		for split < len(oa) && oa[split] == oc[split] {
			split++
		}
		if split == len(oa) {
			return // identical orders: nothing diverges
		}
		prefix := chains[int(a)%len(orders)][split]
		fp := fingerprint(prefix)
		for _, tc := range []struct {
			order []board.NetID
			chain []*routeState
		}{
			{oa, chains[int(a)%len(orders)]},
			{oc, chains[int(c)%len(orders)]},
		} {
			state := prefix
			for _, id := range tc.order[split:] {
				n, err := b.Net(id)
				if err != nil {
					t.Fatal(err)
				}
				state, _, err = run.routeNext(context.Background(), state, n, nil)
				if err != nil {
					t.Fatal(err)
				}
			}
			sameRails(t, fmt.Sprintf("resume %v from split %d", tc.order, split),
				tc.chain[len(tc.chain)-1], state)
		}
		fp.check(t, "shared prefix", prefix)
	})
}
