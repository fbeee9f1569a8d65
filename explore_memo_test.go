package sprout_test

// The rail memo at the level of a whole sweep: traces explain the rails
// it skipped, an owner whose rail fails leaves its waiter to route (and
// fail) exactly as the sequential reference does, and a sweep
// cancelled mid-walk returns.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/obs"
)

// table4Opt is the explorer configuration of one Table IV row.
func table4Opt(t *testing.T, row cases.AreaRow) (*sprout.Board, sprout.RouteOptions) {
	t.Helper()
	cs, err := cases.ThreeRail(row)
	if err != nil {
		t.Fatal(err)
	}
	return cs.Board, sprout.RouteOptions{Layer: cs.RoutingLayer, Budgets: cs.Budgets, Config: cs.Config}
}

// TestExploreMemoTracesReusedRails: the two reused rails still open a
// Rail span, marked reused=true, on the MODEM and CPU tracks, and the
// prefix counters count them as hits.
func TestExploreMemoTracesReusedRails(t *testing.T) {
	b, opt := table4Opt(t, cases.Table4()[0])
	tr := obs.New()
	if _, err := sprout.ExploreNetOrdersCtx(obs.WithTracer(context.Background(), tr), b, opt); err != nil {
		t.Fatal(err)
	}
	var rails int
	var reused []string
	for _, r := range tr.SpanRecords() {
		if r.Name != "Rail" {
			continue
		}
		rails++
		for _, a := range r.Attrs {
			if a.Key == "reused" && a.Val == true {
				reused = append(reused, r.Track)
			}
		}
	}
	slices.Sort(reused)
	if rails != 15 || fmt.Sprint(reused) != "[rail:CPU rail:MODEM]" {
		t.Fatalf("%d Rail spans, reused on %v; want 15, reused on CPU and MODEM", rails, reused)
	}
	counters, _ := tr.MetricsSnapshot()
	if counters[obs.MExplorePrefixMisses] != 13 || counters[obs.MExplorePrefixHits] != 5 {
		t.Fatalf("%s = %d, %s = %d; want 13 and 5", obs.MExplorePrefixMisses, counters[obs.MExplorePrefixMisses],
			obs.MExplorePrefixHits, counters[obs.MExplorePrefixHits])
	}
}

// gapBoard builds a three-net board where net X strands whenever net A
// has routed first: a wall with a 10-wide gap splits the board, A's
// terminals sit level with the gap, and X's must cross it too. So the
// rail "X after {A, B}" fails in both orders that reach it, and its
// memo entry's owner fails while its other node waits or comes later.
func gapBoard(t *testing.T) *sprout.Board {
	t.Helper()
	stack := sprout.Stackup{Layers: []sprout.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	b, err := sprout.NewBoard("gap", geom.R(0, 0, 200, 120), stack, sprout.DesignRules{Clearance: 2, ViaCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{geom.R(90, 0, 110, 51), geom.R(90, 61, 110, 120)} {
		if err := b.AddObstacle(board.NetNone, 1, geom.RegionFromRect(r)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []struct {
		name   string
		pa, pb geom.Rect
	}{
		{"A", geom.R(2, 52, 10, 60), geom.R(190, 52, 198, 60)},
		{"B", geom.R(2, 100, 10, 110), geom.R(60, 100, 68, 110)},
		{"X", geom.R(2, 20, 10, 30), geom.R(190, 20, 198, 30)},
	} {
		id := b.AddNet(n.name, 1, 5)
		for i, r := range []geom.Rect{n.pa, n.pb} {
			if err := b.AddGroup(sprout.TerminalGroup{
				Name: fmt.Sprintf("%s%d", n.name, i), Kind: board.KindBGA, Net: id, Layer: 1, Current: 1,
				Pads: []geom.Region{geom.RegionFromRect(r)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b
}

// TestExploreMemoOwnerFailsLikeSequential: the owner of "X after
// {A, B}" fails, publishes nothing, and the other node routes for itself
// and fails the same way. CG latency keeps the two subtrees' routes
// overlapping. The exploration equals the sequential reference, and 14
// rails route: no memo hit, because the only entry whose nodes both
// route successfully ("A after {B, X}") sees two different spaces.
func TestExploreMemoOwnerFailsLikeSequential(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.ArmLatency(faultinject.SiteCG, 1, 1, time.Millisecond)
	b := gapBoard(t)
	par := diffExplore(t, b, sprout.RouteOptions{
		Layer:          1,
		Budgets:        map[sprout.NetID]int64{0: 1500, 1: 800, 2: 1500},
		Config:         sprout.RouteConfig{DX: 4, DY: 4},
		ExploreWorkers: 4,
	})
	var atX int
	for _, f := range par.Failed {
		if f.FailedNet == 2 && len(f.Order) == 3 && f.Order[2] == 2 {
			atX++
		}
	}
	if atX != 2 {
		t.Fatalf("%d orders failed at a last-routed X, want 2 (failures %v)", atX, par.Failed)
	}
	if par.Stats.PrefixMisses != 14 || par.Stats.PrefixHits != 3 {
		t.Fatalf("rail routes %d, hits %d; want 14 and 3", par.Stats.PrefixMisses, par.Stats.PrefixHits)
	}
}

// TestExploreCancelledMidWalkReturns cancels a Table IV sweep on four
// workers halfway through its grow iterations, before the memo's leaf
// entries are done with: the sweep returns the cancellation and records
// the order it cut.
func TestExploreCancelledMidWalkReturns(t *testing.T) {
	b, opt := table4Opt(t, cases.Table4()[0])
	opt.ExploreWorkers = 4
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm(faultinject.SiteGrow, -1, nil) // count only
	if _, err := sprout.ExploreNetOrders(b, opt); err != nil {
		t.Fatal(err)
	}
	grows := faultinject.Calls(faultinject.SiteGrow)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm(faultinject.SiteGrow, grows/2, func() error {
		cancel()
		return nil
	})
	type result struct {
		out *sprout.OrderExploration
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := sprout.ExploreNetOrdersCtx(ctx, b, opt)
		done <- result{out, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cancelled sweep did not return")
	}
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", r.err)
	}
	if r.out == nil || len(r.out.Failed) == 0 {
		t.Fatal("exploration must carry the in-flight order")
	}
	if last := r.out.Failed[len(r.out.Failed)-1]; last.Kind != sprout.OrderKindCanceled {
		t.Fatalf("kind = %q, want %q", last.Kind, sprout.OrderKindCanceled)
	}
}
