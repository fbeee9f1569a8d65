package sprout

// The explorer's rail memo: which nodes share an entry, what an owner
// that fails hands its waiters, that a node on other copper never
// waits, and that every walk clears every entry — however it ends.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/obs"
)

// sharedEntries maps every memo entry of the tree to the leaf indices of
// the nodes that share it.
func sharedEntries(root *prefixNode) map[*railEntry][]int {
	entries := map[*railEntry][]int{}
	var walk func(n *prefixNode)
	walk = func(n *prefixNode) {
		if n.entry != nil {
			entries[n.entry] = append(entries[n.entry], n.leaf)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(root)
	return entries
}

// TestExploreMemoKeysSharedRails: in a three-net permutation tree only the
// leaves share a key (the last net after the same two), two leaves per
// key; a resumed sweep keys the tree of its remaining orders only.
func TestExploreMemoKeysSharedRails(t *testing.T) {
	orders := lexPermutations([]board.NetID{0, 1, 2}, 0)
	root := buildPrefixTree(orders)
	shareRails(root)
	entries := sharedEntries(root)
	if len(entries) != 3 {
		t.Fatalf("%d memo entries, want 3", len(entries))
	}
	for e, leaves := range entries {
		if len(leaves) != 2 || leaves[0] < 0 || leaves[1] < 0 || e.users.Load() != 2 {
			t.Fatalf("entry shared by nodes of leaves %v with %d users, want two leaves", leaves, e.users.Load())
		}
	}

	// Orders 2.. are [1 0 2] [1 2 0] [2 0 1] [2 1 0]: only "0 after
	// {1, 2}" still occurs twice, at the leaves of [1 2 0] and [2 1 0].
	root = buildPrefixTree(orders[2:])
	shareRails(root)
	entries = sharedEntries(root)
	var keyed []string
	for _, leaves := range entries {
		slices.Sort(leaves)
		for _, leaf := range leaves {
			keyed = append(keyed, fmt.Sprint(orders[2+leaf]))
		}
	}
	if fmt.Sprint(keyed) != "[[1 2 0] [2 1 0]]" {
		t.Fatalf("keyed leaves %v, want one entry for those of [1 2 0] and [2 1 0]", keyed)
	}
}

// newEntry returns a memo entry shared by users nodes.
func newEntry(users int32) *railEntry {
	e := &railEntry{done: make(chan struct{})}
	e.users.Store(users)
	return e
}

// TestExploreMemoOwnerFailureWaiterRoutes routes net C on one snapshot
// twice through one memo entry: the owner is held inside its extraction
// while the second caller waits on the entry. An owner that fails or
// panics publishes nothing and its waiter routes for itself; an owner
// that succeeds hands its rail over. Either way the waiter's snapshot is
// the one routing without the memo gives.
func TestExploreMemoOwnerFailureWaiterRoutes(t *testing.T) {
	b := resumeBoard(t)
	run, err := newBoardRun(b, resumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	parent := routeChain(t, run, []board.NetID{0, 1})[2]
	net, err := b.Net(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, _, err := run.routeNext(ctx, parent, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	errInjected := errors.New("injected owner fault")
	for _, mode := range []string{"error", "panic", "ok"} {
		t.Run(mode, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()
			inRoute, release := make(chan struct{}), make(chan struct{})
			faultinject.Arm(faultinject.SiteExtract, 1, func() error {
				close(inRoute)
				<-release
				switch mode {
				case "panic":
					panic(errInjected)
				case "error":
					return errInjected
				}
				return nil
			})
			e := newEntry(2)
			x := &explorer{run: run}
			type outcome struct {
				state  *routeState
				reused bool
				err    error
			}
			route := func(out chan<- outcome) {
				s, r, err := x.routeNode(ctx, parent, net, e)
				out <- outcome{s, r, err}
			}
			owner, waiter := make(chan outcome, 1), make(chan outcome, 1)
			go route(owner)
			<-inRoute
			go route(waiter)
			waitForStack(t, "(*railEntry).wait")
			close(release)

			o, w := <-owner, <-waiter
			if w.err != nil {
				t.Fatalf("waiter: %v", w.err)
			}
			sameRails(t, mode, want, w.state)
			var pe *PanicError
			switch mode {
			case "ok":
				if o.err != nil || !w.reused || w.state.rails[2].Route != o.state.rails[2].Route {
					t.Fatalf("owner err %v, waiter reused %v: want the owner's rail handed over", o.err, w.reused)
				}
			case "panic":
				if !errors.As(o.err, &pe) || w.reused || e.ok {
					t.Fatalf("owner err %v, waiter reused %v, published %v", o.err, w.reused, e.ok)
				}
			default:
				if !errors.Is(o.err, errInjected) || w.reused || e.ok {
					t.Fatalf("owner err %v, waiter reused %v, published %v", o.err, w.reused, e.ok)
				}
			}
		})
	}
}

// waitForStack waits until some goroutine's stack holds fn.
func waitForStack(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); runtime.Gosched() {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// TestExploreMemoChecksAvailableSpace: a node whose snapshot claimed
// other copper than the owner's routes for itself, and at once: it
// neither waits for an owner still routing nor takes the rail an owner
// published.
func TestExploreMemoChecksAvailableSpace(t *testing.T) {
	b := resumeBoard(t)
	run, err := newBoardRun(b, resumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	ab := routeChain(t, run, []board.NetID{0, 1})[2]
	ba := routeChain(t, run, []board.NetID{1, 0})[2]
	if ab.sproutCopper.Equal(ba.sproutCopper) {
		t.Fatal("both orders claim the same copper; the board proves nothing")
	}
	net, err := b.Net(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, _, err := run.routeNext(ctx, ba, net, nil)
	if err != nil {
		t.Fatal(err)
	}

	// An owner still routing has claimed the entry with its spaces, and
	// done stays open.
	e := newEntry(2)
	availAB := b.AvailableSpace(net.ID, run.opt.Layer).Subtract(ab.sproutCopper.Bloat(b.Rules.Clearance))
	if owner, _ := e.claim(availAB, geom.Region{}); !owner {
		t.Fatal("the first claim did not own the entry")
	}
	type outcome struct {
		state  *routeState
		reused bool
		err    error
	}
	out := make(chan outcome, 1)
	go func() {
		s, r, err := run.routeNext(ctx, ba, net, e)
		out <- outcome{s, r, err}
	}()
	select {
	case o := <-out:
		if o.err != nil || o.reused {
			t.Fatalf("node on other copper: reused %v, err %v", o.reused, o.err)
		}
		sameRails(t, "C after B, A beside an owner routing", want, o.state)
	case <-time.After(time.Minute):
		t.Fatal("the node on other copper waited for the owner")
	}

	e = newEntry(2)
	if _, reused, err := run.routeNext(ctx, ab, net, e); err != nil || reused || !e.ok {
		t.Fatalf("owner: reused %v, published %v, err %v", reused, e.ok, err)
	}
	got, reused, err := run.routeNext(ctx, ba, net, e)
	if err != nil || reused {
		t.Fatalf("node on other copper: reused %v, err %v", reused, err)
	}
	sameRails(t, "C after B, A beside a published owner", want, got)
}

// TestExploreMemoReusedRailTracesDegrade: outside FailFast a rail whose
// budget is below its seed degrades; a node that reuses it reports the
// degrade and the failure on its Rail span, as the owner does.
func TestExploreMemoReusedRailTracesDegrade(t *testing.T) {
	b := resumeBoard(t)
	opt := resumeOptions()
	opt.FailFast = false
	opt.Budgets = map[board.NetID]int64{0: 2400, 1: 2400, 2: 1}
	run, err := newBoardRun(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	parent := routeChain(t, run, []board.NetID{0, 1})[2]
	net, err := b.Net(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	ctx := obs.WithTracer(context.Background(), tr)
	e := newEntry(2)
	owner, _, err := run.routeNext(ctx, parent, net, e)
	if err != nil || !owner.rails[2].Diag.Degraded {
		t.Fatalf("owner: err %v, diag %+v; want a degraded rail", err, owner.rails[2].Diag)
	}
	got, reused, err := run.routeNext(ctx, parent, net, e)
	if err != nil || !reused {
		t.Fatalf("second node: reused %v, err %v", reused, err)
	}
	sameRails(t, "reused degraded rail", owner, got)
	var degraded, failed, reusedSpans int
	for _, r := range tr.SpanRecords() {
		if r.Name != "Rail" {
			continue
		}
		if r.Err != "" {
			failed++
		}
		for _, a := range r.Attrs {
			switch {
			case a.Key == "degraded" && a.Val == true:
				degraded++
			case a.Key == "reused" && a.Val == true:
				reusedSpans++
			}
		}
	}
	if degraded != 2 || failed != 2 || reusedSpans != 1 {
		t.Fatalf("Rail spans: %d degraded, %d failed, %d reused; want 2/2/1", degraded, failed, reusedSpans)
	}
}

// TestExploreWalkDrainsMemo walks the Table IV layout 1 tree to its end —
// complete, cancelled mid-walk, with a failing rail, with a panicking
// rail — and requires every order settled and every memo entry cleared.
func TestExploreWalkDrainsMemo(t *testing.T) {
	cs, err := cases.ThreeRail(cases.Table4()[0])
	if err != nil {
		t.Fatal(err)
	}
	opt := RouteOptions{Layer: cs.RoutingLayer, Budgets: cs.Budgets, Config: cs.Config, FailFast: true}
	run, err := newBoardRun(cs.Board, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := routableNets(cs.Board, opt.Layer)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[board.NetID]board.Net{}
	for _, id := range ids {
		if nets[id], err = cs.Board.Net(id); err != nil {
			t.Fatal(err)
		}
	}
	orders := lexPermutations(ids, 0)

	walk := func(t *testing.T, ctx context.Context) *explorer {
		t.Helper()
		x := startExplorer(ctx, run, nets, 2, orders)
		done := make(chan struct{})
		go func() {
			x.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatal("walk did not finish")
		}
		for i := range x.ready {
			select {
			case <-x.ready[i]:
			default:
				t.Fatalf("order %d never settled", i)
			}
		}
		for e, leaves := range sharedEntries(x.root) {
			if e.users.Load() != 0 || e.ok || e.rail.Route != nil || e.spaces.Load() != nil {
				t.Fatalf("entry of leaves %v not cleared: %d users, published %v", leaves, e.users.Load(), e.ok)
			}
		}
		return x
	}

	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm(faultinject.SiteGrow, -1, nil) // count only
	if x := walk(t, context.Background()); x.misses.Load() != 13 || x.hits.Load() != 5 {
		t.Fatalf("complete walk: %d routes, %d hits; want 13 and 5", x.misses.Load(), x.hits.Load())
	}
	grows := faultinject.Calls(faultinject.SiteGrow)

	t.Run("cancelled", func(t *testing.T) {
		faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faultinject.Arm(faultinject.SiteGrow, grows/2, func() error {
			cancel()
			return nil
		})
		x := walk(t, ctx)
		canceled := 0
		for _, oc := range x.outcomes {
			if errors.Is(oc.err, context.Canceled) {
				canceled++
			}
		}
		if canceled == 0 {
			t.Fatal("no order saw the cancellation")
		}
	})
	for _, tc := range []struct {
		name string
		fire func() error
	}{
		{"failing rail", func() error { return errors.New("injected extraction fault") }},
		{"panicking rail", func() error { panic("injected extraction panic") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			faultinject.Arm(faultinject.SiteExtract, 2, tc.fire)
			x := walk(t, context.Background())
			failed := 0
			for _, oc := range x.outcomes {
				if oc.err != nil {
					failed++
				}
			}
			if failed == 0 {
				t.Fatal("the injected fault failed no order")
			}
		})
	}
}
