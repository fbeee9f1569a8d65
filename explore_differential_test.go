package sprout_test

// The differential suite is the acceptance gate for the explorer: on
// every cased board, the prefix-tree explorer and the sequential
// reference oracle (sprout.ExploreSequential, test-only) must produce
// bit-identical explorations — same best order, same per-order scores,
// same failures, same per-rail polygons, member masks, tile-graph sizes
// and resistances. Floating-point results are compared with == on
// purpose: the two must run the same arithmetic in the same order, not
// merely land close. Run under -race with -count=2 (see CI) to flush
// scheduling nondeterminism.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/faultinject"
)

// diffExplore runs the explorer and the sequential oracle on the same
// board/options, asserts bit-identical results and returns the
// explorer's.
func diffExplore(t *testing.T, b *sprout.Board, opt sprout.RouteOptions) *sprout.OrderExploration {
	t.Helper()
	seq, seqErr := sprout.ExploreSequential(context.Background(), b, opt)
	par, parErr := sprout.ExploreNetOrders(b, opt)

	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("error divergence: sequential %v vs parallel %v", seqErr, parErr)
	}
	if seqErr != nil && seqErr.Error() != parErr.Error() {
		t.Fatalf("error text divergence:\n  sequential: %v\n  parallel:   %v", seqErr, parErr)
	}
	if seq == nil || par == nil {
		if (seq == nil) != (par == nil) {
			t.Fatalf("result divergence: sequential %v vs parallel %v", seq, par)
		}
		return par
	}
	sameExploration(t, seq, par)
	return par
}

// sameExploration asserts every determinism-contract field matches.
// Stats is deliberately excluded: runs report different pool, cache and
// resume numbers for identical routing results.
func sameExploration(t *testing.T, seq, par *sprout.OrderExploration) {
	t.Helper()
	if fmt.Sprint(seq.BestOrder) != fmt.Sprint(par.BestOrder) {
		t.Fatalf("best order: sequential %v vs parallel %v", seq.BestOrder, par.BestOrder)
	}
	if seq.BestScore != par.BestScore {
		t.Fatalf("best score: sequential %v vs parallel %v", seq.BestScore, par.BestScore)
	}
	if seq.Tried != par.Tried {
		t.Fatalf("tried: sequential %d vs parallel %d", seq.Tried, par.Tried)
	}
	if len(seq.Evaluated) != len(par.Evaluated) {
		t.Fatalf("evaluated: sequential %d vs parallel %d", len(seq.Evaluated), len(par.Evaluated))
	}
	for i := range seq.Evaluated {
		s, p := seq.Evaluated[i], par.Evaluated[i]
		if fmt.Sprint(s.Order) != fmt.Sprint(p.Order) || s.Score != p.Score {
			t.Fatalf("evaluated[%d]: sequential %v=%v vs parallel %v=%v",
				i, s.Order, s.Score, p.Order, p.Score)
		}
	}
	if len(seq.Failed) != len(par.Failed) {
		t.Fatalf("failed: sequential %d vs parallel %d", len(seq.Failed), len(par.Failed))
	}
	for i := range seq.Failed {
		s, p := seq.Failed[i], par.Failed[i]
		if fmt.Sprint(s.Order) != fmt.Sprint(p.Order) || s.Kind != p.Kind || s.FailedNet != p.FailedNet {
			t.Fatalf("failed[%d]: sequential %+v vs parallel %+v", i, s, p)
		}
		if s.Err.Error() != p.Err.Error() {
			t.Fatalf("failed[%d] error text:\n  sequential: %v\n  parallel:   %v", i, s.Err, p.Err)
		}
	}
	if (seq.Best == nil) != (par.Best == nil) {
		t.Fatalf("best presence: sequential %v vs parallel %v", seq.Best != nil, par.Best != nil)
	}
	if seq.Best != nil {
		sameBoardResult(t, seq.Best, par.Best)
	}
}

// sameBoardResult asserts the winning boards are rail-for-rail
// identical: polygons byte-equal, member masks and tile-graph sizes
// equal, resistances bit-equal. Report is
// excluded (wall-clock durations legitimately differ).
func sameBoardResult(t *testing.T, seq, par *sprout.BoardResult) {
	t.Helper()
	if seq.Layer != par.Layer || len(seq.Rails) != len(par.Rails) {
		t.Fatalf("board shape: sequential layer %d/%d rails vs parallel %d/%d",
			seq.Layer, len(seq.Rails), par.Layer, len(par.Rails))
	}
	for i := range seq.Rails {
		s, p := seq.Rails[i], par.Rails[i]
		if s.Net != p.Net || s.Name != p.Name || s.Budget != p.Budget {
			t.Fatalf("rail[%d] identity: sequential %s/%d vs parallel %s/%d",
				i, s.Name, s.Budget, p.Name, p.Budget)
		}
		if (s.Route == nil) != (p.Route == nil) {
			t.Fatalf("rail[%d] %s route presence differs", i, s.Name)
		}
		if s.Route != nil {
			if !s.Route.Shape.Equal(p.Route.Shape) {
				t.Fatalf("rail[%d] %s polygon differs between explorer paths", i, s.Name)
			}
			if s.Route.Resistance != p.Route.Resistance {
				t.Fatalf("rail[%d] %s resistance: %v vs %v", i, s.Name, s.Route.Resistance, p.Route.Resistance)
			}
			if fmt.Sprint(s.Route.PairResistance) != fmt.Sprint(p.Route.PairResistance) {
				t.Fatalf("rail[%d] %s pair resistances differ", i, s.Name)
			}
			if fmt.Sprint(s.Route.Members) != fmt.Sprint(p.Route.Members) {
				t.Fatalf("rail[%d] %s member masks differ: %d vs %d nodes",
					i, s.Name, len(s.Route.Members), len(p.Route.Members))
			}
			if (s.Route.Graph == nil) != (p.Route.Graph == nil) {
				t.Fatalf("rail[%d] %s tile graph presence differs", i, s.Name)
			}
			if s.Route.Graph != nil && s.Route.Graph.G.N() != p.Route.Graph.G.N() {
				t.Fatalf("rail[%d] %s tile graph size: %d vs %d nodes",
					i, s.Name, s.Route.Graph.G.N(), p.Route.Graph.G.N())
			}
		}
		if (s.Extract == nil) != (p.Extract == nil) {
			t.Fatalf("rail[%d] %s extract presence differs", i, s.Name)
		}
		if s.Extract != nil {
			if s.Extract.ResistanceOhms != p.Extract.ResistanceOhms ||
				s.Extract.InductancePH != p.Extract.InductancePH ||
				s.Extract.Nodes != p.Extract.Nodes {
				t.Fatalf("rail[%d] %s extraction differs: %+v vs %+v", i, s.Name, s.Extract, p.Extract)
			}
		}
	}
}

func TestExploreDifferentialOrderBoard(t *testing.T) {
	b := orderBoard(t)
	diffExplore(t, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{0: 2200, 1: 2200},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
}

func TestExploreDifferentialTwoRail(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	diffExplore(t, cs.Board, sprout.RouteOptions{
		Layer:   cs.RoutingLayer,
		Budgets: cs.Budgets,
		Config:  cs.Config,
	})
}

// TestExploreDifferentialThreeRail sweeps every Table IV row and pins
// the rail memo's count: each sweep's prefix tree has 15 nodes, and on
// every row the leaf rails "MODEM after {CPU, DSP}" and "CPU after
// {MODEM, DSP}" see the same available space in both of their orders,
// so 13 rails route and 5 of the 18 sequential routes are hits.
func TestExploreDifferentialThreeRail(t *testing.T) {
	for _, row := range cases.Table4() {
		row := row
		t.Run(fmt.Sprintf("layout%d", row.Layout), func(t *testing.T) {
			cs, err := cases.ThreeRail(row)
			if err != nil {
				t.Fatal(err)
			}
			par := diffExplore(t, cs.Board, sprout.RouteOptions{
				Layer:   cs.RoutingLayer,
				Budgets: cs.Budgets,
				Config:  cs.Config,
			})
			if par.Stats.PrefixMisses != 13 || par.Stats.PrefixHits != 5 {
				t.Fatalf("rail routes %d, hits %d; want 13 and 5",
					par.Stats.PrefixMisses, par.Stats.PrefixHits)
			}
		})
	}
}

// TestExploreDifferentialThreeRailManual adds the manual baseline, so a
// rail is reused only when its manual space also matches; on this row
// both shared rails' manual spaces match too.
func TestExploreDifferentialThreeRailManual(t *testing.T) {
	cs, err := cases.ThreeRail(cases.Table4()[0])
	if err != nil {
		t.Fatal(err)
	}
	par := diffExplore(t, cs.Board, sprout.RouteOptions{
		Layer:      cs.RoutingLayer,
		Budgets:    cs.Budgets,
		Config:     cs.Config,
		WithManual: true,
	})
	if par.Stats.PrefixMisses != 13 || par.Stats.PrefixHits != 5 {
		t.Fatalf("rail routes %d, hits %d; want 13 and 5", par.Stats.PrefixMisses, par.Stats.PrefixHits)
	}
}

func TestExploreDifferentialFailingOrders(t *testing.T) {
	// All orders fail on the walled board: the Failed lists — order,
	// kind, failing net, message — must match across paths too.
	b, _, _ := walledBoard(t)
	diffExplore(t, b, sprout.RouteOptions{
		Layer:  1,
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	})
}

// TestExploreDifferentialSixRail covers the >4-net rotation enumeration.
// The full six-rail sweep routes the board many times, so it is skipped
// in -short runs; SPROUT_EXPLORE_SOAK=n scales it up to a permutation
// sweep of n orders over the full factorial tree.
func TestExploreDifferentialSixRail(t *testing.T) {
	if testing.Short() {
		t.Skip("six-rail differential sweep is slow; run without -short")
	}
	cs, err := cases.SixRail()
	if err != nil {
		t.Fatal(err)
	}
	opt := sprout.RouteOptions{
		Layer:   cs.RoutingLayer,
		Budgets: cs.Budgets,
		Config:  cs.Config,
		// Rotations by default (6 orders). The soak knob switches to the
		// factorial tree and scales the order count.
		ExploreMaxOrders: 6,
	}
	if v := os.Getenv("SPROUT_EXPLORE_SOAK"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SPROUT_EXPLORE_SOAK=%q", v)
		}
		opt.ExploreAllOrders = true
		opt.ExploreMaxOrders = n
	}
	diffExplore(t, cs.Board, opt)
}

// TestExploreFailureTelemetry pins the satellite fix: a failed order
// records which net failed and the error kind, instead of dropping the
// telemetry.
func TestExploreFailureTelemetry(t *testing.T) {
	b, strandedID, _ := walledBoard(t)
	out, err := sprout.ExploreNetOrders(b, sprout.RouteOptions{
		Layer:  1,
		Config: sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err == nil {
		t.Fatal("walled board must fail every order")
	}
	if len(out.Failed) != 2 {
		t.Fatalf("Failed = %d orders, want 2", len(out.Failed))
	}
	for _, f := range out.Failed {
		if f.Kind != sprout.OrderKindRoute {
			t.Fatalf("kind = %q, want %q", f.Kind, sprout.OrderKindRoute)
		}
		if f.FailedNet != strandedID {
			t.Fatalf("failed net = %v, want stranded net %v", f.FailedNet, strandedID)
		}
	}
}

// TestExploreCancelledMidBoardRecordsOrder pins the other half of the
// fix: an order interrupted mid-board lands in Failed with a canceled
// kind before the context error is returned — previously the in-flight
// order vanished.
func TestExploreCancelledMidBoardRecordsOrder(t *testing.T) {
	b := orderBoard(t)
	faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the second SmartGrow iteration, so the
	// cancellation deterministically strikes mid-board with an order in
	// flight.
	faultinject.Arm(faultinject.SiteGrow, 2, func() error {
		cancel()
		return nil
	})
	out, err := sprout.ExploreNetOrdersCtx(ctx, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{0: 2200, 1: 2200},
		Config:  sprout.RouteConfig{DX: 5, DY: 5, GrowNodes: 1},
	})
	faultinject.Reset()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if out == nil {
		t.Fatal("exploration must carry the in-flight order")
	}
	if len(out.Failed) == 0 {
		t.Fatal("cancelled mid-board but Failed is empty")
	}
	last := out.Failed[len(out.Failed)-1]
	if last.Kind != sprout.OrderKindCanceled {
		t.Fatalf("kind = %q, want %q", last.Kind, sprout.OrderKindCanceled)
	}
	if len(last.Order) == 0 {
		t.Fatal("in-flight order not recorded")
	}
}
