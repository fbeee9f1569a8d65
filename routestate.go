package sprout

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"sprout/internal/board"
	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/manual"
	"sprout/internal/obs"
	"sprout/internal/route"
)

// RailError identifies the rail a board-level routing failure came from.
// FailFast aborts and per-rail Diag records wrap the underlying pipeline
// error in a RailError, so callers (notably the order explorer) can
// attribute a failed run to the net that caused it with errors.As instead
// of parsing messages.
type RailError struct {
	// Net and Name identify the failing rail.
	Net  board.NetID
	Name string
	// Stage is the pipeline phase that failed: "" for the routing
	// synthesis itself, else "extract", "manual baseline" or "extract manual".
	Stage string
	// Err is the underlying failure.
	Err error
}

// Error renders the historical board-level message for the failing stage.
func (e *RailError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("sprout: %s net %s: %v", e.Stage, e.Name, e.Err)
	}
	return fmt.Sprintf("sprout: net %s: %v", e.Name, e.Err)
}

// Unwrap exposes the underlying pipeline error.
func (e *RailError) Unwrap() error { return e.Err }

// boardRun is the validated, immutable context of one board-level routing
// problem: the board, the options, and the extraction parameters derived
// from the chosen layer. One boardRun is shared by every routing order the
// explorer tries — it carries no mutable routing state.
type boardRun struct {
	b     *board.Board
	opt   RouteOptions
	exOpt extract.Options
}

// newBoardRun validates the layer and prepares the extraction options,
// rejecting bad ones once here rather than once per rail.
func newBoardRun(b *board.Board, opt RouteOptions) (*boardRun, error) {
	if opt.Layer < 1 || opt.Layer > b.Stackup.NumLayers() {
		return nil, fmt.Errorf("sprout: routing layer %d out of range [1,%d]", opt.Layer, b.Stackup.NumLayers())
	}
	layerInfo := b.Stackup.Layer(opt.Layer)
	if layerInfo.IsPlane {
		return nil, fmt.Errorf("sprout: layer %d is a reference plane, not routable", opt.Layer)
	}
	exOpt := extract.Options{
		Pitch:     opt.ExtractPitch,
		SheetOhms: layerInfo.SheetResistance(),
		HeightUM:  b.Stackup.DistanceToPlaneUM(opt.Layer),
	}
	if err := exOpt.Validate(); err != nil {
		return nil, fmt.Errorf("sprout: %w", err)
	}
	return &boardRun{b: b, opt: opt, exOpt: exOpt}, nil
}

// resolveOrder expands and validates a routing order: the default is net
// id order, repeated or unknown ids are rejected.
func resolveOrder(b *board.Board, order []board.NetID) ([]board.Net, error) {
	if len(order) == 0 {
		for _, n := range b.Nets {
			order = append(order, n.ID)
		}
	}
	nets := make([]board.Net, 0, len(order))
	seen := map[board.NetID]bool{}
	for _, id := range order {
		n, err := b.Net(id)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("sprout: net %s repeated in Order", n.Name)
		}
		seen[id] = true
		nets = append(nets, n)
	}
	return nets, nil
}

// routeState is an immutable snapshot of a routed prefix: the rails
// synthesized so far and the copper they (and their manual baselines)
// have claimed. Snapshots form the nodes of the explorer's permutation
// tree — routeNext never mutates its parent, so one snapshot can be
// extended by many diverging suffixes concurrently. The determinism
// contract (DESIGN "Exploration scaling") rests on this immutability:
// routing net N on top of a snapshot yields bit-identical results whether
// the snapshot was just computed, memoized, or shared across goroutines.
type routeState struct {
	rails        []RailResult
	sproutCopper geom.Region
	manualCopper geom.Region
}

// newRouteState returns the empty prefix: nothing routed, nothing claimed.
func newRouteState() *routeState {
	return &routeState{sproutCopper: geom.EmptyRegion(), manualCopper: geom.EmptyRegion()}
}

// appendRail copies the rail list and appends one entry, so sibling
// branches sharing the parent slice never alias each other's tails.
func appendRail(rails []RailResult, rail RailResult) []RailResult {
	out := make([]RailResult, len(rails)+1)
	copy(out, rails)
	out[len(rails)] = rail
	return out
}

// extend returns the child snapshot of s with rail appended and the
// copper of its route and its manual baseline claimed.
func (s *routeState) extend(rail RailResult) *routeState {
	next := &routeState{
		rails:        appendRail(s.rails, rail),
		sproutCopper: s.sproutCopper,
		manualCopper: s.manualCopper,
	}
	if rail.Route != nil {
		next.sproutCopper = next.sproutCopper.Union(rail.Route.Shape)
	}
	if rail.Manual != nil {
		next.manualCopper = next.manualCopper.Union(rail.Manual.Shape)
	}
	return next
}

// railEntry lets the explorer's tree nodes that route the same net after
// the same set of nets share one route. The first node to claim the
// entry owns it, records its available spaces and routes; a node whose
// spaces equal the owner's waits for done and reuses the owner's rail,
// and any other node routes at once. routeNext is a pure function of the
// net and those spaces, so the reused rail is the one the node would
// have routed. Only a successful route is published: an owner that
// fails, is cancelled or panics still closes done, and its waiters then
// route for themselves.
type railEntry struct {
	// spaces holds the owner's available spaces; the compare-and-swap
	// that installs them makes the caller the owner.
	spaces atomic.Pointer[railSpaces]
	done   chan struct{}
	// users counts the nodes yet to release the entry.
	users atomic.Int32
	// Written by the owner before done closes.
	ok   bool
	rail RailResult
}

// railSpaces is a rail's SPROUT and manual available spaces.
type railSpaces struct{ avail, mAvail geom.Region }

// claim makes the caller the entry's owner when no node has claimed it
// yet; otherwise it reports whether the caller's spaces equal the
// owner's.
func (e *railEntry) claim(avail, mAvail geom.Region) (owner, same bool) {
	if e.spaces.CompareAndSwap(nil, &railSpaces{avail, mAvail}) {
		return true, false
	}
	o := e.spaces.Load()
	return false, avail.Equal(o.avail) && mAvail.Equal(o.mAvail)
}

// wait waits for the owner and returns the rail it published, if any.
func (e *railEntry) wait(ctx context.Context) (RailResult, bool, error) {
	select {
	case <-e.done:
	case <-ctx.Done():
		return RailResult{}, false, ctx.Err()
	}
	return e.rail, e.ok, nil
}

// release records that one node is done with the entry: it routed or
// reused its rail, or an ancestor failed. The last release drops the
// published rail and the owner's spaces, so the entry holds a route only
// until its last possible reuse. A nil entry is a no-op.
func (e *railEntry) release() {
	if e != nil && e.users.Add(-1) == 0 {
		e.rail, e.ok = RailResult{}, false
		e.spaces.Store(nil)
	}
}

// routeNext routes one net on top of a parent snapshot and returns the
// child snapshot. The parent is never modified; when the net has fewer
// than two terminal groups on the layer there is nothing to route and the
// parent itself is returned.
//
// Failure semantics match RouteBoardCtx: cancellation aborts, FailFast
// converts any rail failure into a *RailError abort, and otherwise the
// rail degrades to its seed-only route with the failure recorded in its
// Diag.
//
// shared is the explorer's memo entry for this rail, nil outside the
// explorer. reused reports that the rail was taken from it, not routed.
func (r *boardRun) routeNext(ctx context.Context, parent *routeState, net board.Net, shared *railEntry) (next *routeState, reused bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	terms := railTerminals(r.b, net.ID, r.opt.Layer)
	if len(terms) < 2 {
		return parent, false, nil // nothing to route on this layer for this net
	}
	// Each rail runs under its own trace track, span, and pprof label, so
	// CPU profiles and Chrome traces attribute time per rail — also when
	// several rails route concurrently on explorer goroutines.
	rctx := obs.WithTrack(ctx, "rail:"+net.Name)
	rctx = pprof.WithLabels(rctx, pprof.Labels("rail", net.Name))
	pprof.SetGoroutineLabels(rctx)
	defer pprof.SetGoroutineLabels(ctx)
	rctx, railSp := obs.StartSpan(rctx, "Rail", obs.A("net", net.Name))
	defer railSp.End()

	cfg := r.opt.Config
	budget := r.opt.Budgets[net.ID]
	if budget > 0 {
		cfg.AreaMax = budget
	}

	baseAvail := r.b.AvailableSpace(net.ID, r.opt.Layer)
	avail := baseAvail.Subtract(parent.sproutCopper.Bloat(r.b.Rules.Clearance))
	var mAvail geom.Region
	if r.opt.WithManual {
		mAvail = baseAvail.Subtract(parent.manualCopper.Bloat(r.b.Rules.Clearance))
	}
	if shared != nil {
		owner, same := shared.claim(avail, mAvail)
		if owner {
			defer close(shared.done)
		} else {
			if same {
				rail, ok, err := shared.wait(ctx)
				if err != nil {
					return nil, false, err
				}
				if ok {
					railSp.SetAttrs(obs.A("reused", true))
					if rail.Diag.Degraded {
						railSp.SetAttrs(obs.A("degraded", true))
					}
					railSp.Fail(rail.Diag.Err)
					return parent.extend(rail), true, nil
				}
			}
			shared = nil // other spaces, or the owner published nothing
		}
	}
	rail := RailResult{Net: net.ID, Name: net.Name, Budget: cfg.AreaMax}
	res, rerr := route.RouteCtx(rctx, avail, terms, cfg)
	switch {
	case rerr == nil:
		rail.Route = res
	case isCtxErr(rerr):
		return nil, false, rerr // cancellation is never a rail fault
	case r.opt.FailFast:
		return nil, false, &RailError{Net: net.ID, Name: net.Name, Err: rerr}
	default:
		// Per-rail isolation: record the failure and keep the seed-only
		// route (paper Alg. 2) the failed pipeline handed back. The seed
		// ignores the area budget — a minimal connected shape beats no
		// shape. When even seeding failed the rail stays unrouted but
		// the board goes on.
		rail.Diag.Err = &RailError{Net: net.ID, Name: net.Name, Err: rerr}
		if res != nil {
			rail.Route = res
			rail.Diag.Degraded = true
			railSp.SetAttrs(obs.A("degraded", true))
		}
	}

	// fault applies the rail-fault policy to a failed stage after routing:
	// a context error aborts, FailFast aborts with a *RailError, and
	// otherwise the failure joins the rail's Diag and nil is returned.
	fault := func(stage string, err error) error {
		if isCtxErr(err) {
			return err
		}
		rerr := &RailError{Net: net.ID, Name: net.Name, Stage: stage, Err: err}
		if r.opt.FailFast {
			return rerr
		}
		rail.Diag.Err = errors.Join(rail.Diag.Err, rerr)
		return nil
	}
	// extractShape extracts a shape with its terminal pads; a failure the
	// policy records returns a nil report and a nil error.
	extractShape := func(stage string, shape geom.Region) (*extract.Report, error) {
		rep, err := extract.ExtractCtx(rctx, shape.Union(termPads(terms)), terms, r.exOpt)
		if err != nil {
			return nil, fault(stage, err)
		}
		return rep, nil
	}

	if rail.Route != nil {
		rail.Solve = rail.Route.Solve
		if !r.opt.SkipExtract {
			if rail.Extract, err = extractShape("extract", rail.Route.Shape); err != nil {
				return nil, false, err
			}
		}
	}

	if r.opt.WithManual && rail.Route != nil {
		target := cfg.AreaMax
		if target <= 0 {
			target = rail.Route.Shape.Area()
		}
		// Before any copper is claimed the manual space is the SPROUT
		// space, so at a square pitch the rail's tile graph is the one
		// the baseline would build.
		var man *manual.Result
		var merr error
		if tg := rail.Route.Graph; tg.DX == tg.DY && mAvail.Equal(avail) {
			man, merr = manual.RouteGraph(tg, mAvail, terms, target)
		} else {
			man, merr = manual.Route(mAvail, terms, target, cfg.WithDefaults().DX)
		}
		if merr != nil {
			if err := fault("manual baseline", merr); err != nil {
				return nil, false, err
			}
		} else {
			rail.Manual = man
			if !r.opt.SkipExtract {
				if rail.ManualExtract, err = extractShape("extract manual", man.Shape); err != nil {
					return nil, false, err
				}
			}
		}
	}
	railSp.Fail(rail.Diag.Err)
	if shared != nil {
		shared.rail, shared.ok = rail, true
	}
	return parent.extend(rail), false, nil
}

// finalize converts a fully routed snapshot into the BoardResult,
// applying the historical board-level checks: at least one net had to be
// routable, and at least one rail had to route (degraded counts).
func (r *boardRun) finalize(ctx context.Context, state *routeState, start time.Time) (*BoardResult, error) {
	result := &BoardResult{Board: r.b, Layer: r.opt.Layer, Rails: state.rails}
	if len(result.Rails) == 0 {
		return nil, fmt.Errorf("sprout: no routable nets on layer %d", r.opt.Layer)
	}
	routed := 0
	var firstErr error
	for _, rail := range result.Rails {
		if rail.Route != nil {
			routed++
		} else if firstErr == nil {
			firstErr = rail.Diag.Err
		}
	}
	if routed == 0 {
		return nil, fmt.Errorf("sprout: every rail failed on layer %d: %w", r.opt.Layer, firstErr)
	}
	result.Report = buildRunReport(r.b.Name, r.opt.Layer, false, time.Since(start),
		railReports(result.Rails), obs.FromContext(ctx))
	return result, nil
}
