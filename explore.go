package sprout

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sprout/internal/board"
	"sprout/internal/sparse"
)

// Error kinds recorded in OrderError.Kind, classifying why an order
// failed. The explorer routes with FailFast, so most failures are
// KindRoute (an order stranded a net); the rest distinguish aborts the
// caller usually wants to handle differently.
const (
	// OrderKindCanceled: the order was interrupted mid-board by context
	// cancellation.
	OrderKindCanceled = "canceled"
	// OrderKindDeadline: the order was interrupted mid-board by deadline
	// expiry.
	OrderKindDeadline = "deadline"
	// OrderKindPanic: a contained panic poisoned the order.
	OrderKindPanic = "panic"
	// OrderKindSolve: the solver fallback ladder was exhausted.
	OrderKindSolve = "solve"
	// OrderKindRoute: the routing pipeline failed (typically a stranded
	// net under this order).
	OrderKindRoute = "route"
)

// OrderError records one net ordering that failed to route.
type OrderError struct {
	// Order is the attempted net sequence.
	Order []board.NetID
	// Err is why the order failed.
	Err error
	// FailedNet is the rail whose pipeline failed, when the failure is
	// attributable to one (board.NetNone otherwise — e.g. cancellation
	// between rails).
	FailedNet board.NetID
	// Kind classifies the failure (see the OrderKind constants).
	Kind string
}

// OrderScore records the score of one successfully evaluated order, in
// trial order. The explorer's determinism contract pins this list: every
// run evaluates the same orders to the same scores, exactly as routing
// each order from scratch would.
type OrderScore struct {
	Order []board.NetID
	Score float64
}

// ExploreStats reports how an exploration ran. Unlike the rest of
// OrderExploration it is not part of the determinism contract: runs
// with different pool sizes or resumed checkpoints report different
// numbers for identical routing results.
type ExploreStats struct {
	// Orders is the number of orderings enumerated.
	Orders int
	// Workers is the worker-pool bound used.
	Workers int
	// PrefixHits counts rail routes skipped because a shared prefix
	// snapshot already covered them, or because the rail memo handed
	// over a rail another node routed for the same net on the same
	// available space; PrefixMisses counts rail routes actually
	// performed. Routing every order from scratch would perform
	// Hits+Misses rail routes.
	PrefixHits   int64
	PrefixMisses int64
	// ResumedOrders counts the leading orders whose outcomes were
	// replayed from an ExploreResume checkpoint instead of routed.
	ResumedOrders int
}

// OrderExploration is the outcome of trying several net routing orders.
type OrderExploration struct {
	// Best is the winning board result.
	Best *BoardResult
	// BestOrder is the winning sequence.
	BestOrder []board.NetID
	// BestScore is the current-weighted total resistance of the winner.
	BestScore float64
	// Tried counts the successfully evaluated orders.
	Tried int
	// Failed records every order that did not route, in trial order. An
	// order that strands a later net is simply worse, so failures are not
	// fatal as long as some order succeeds. An order interrupted
	// mid-board by cancellation is recorded here too (Kind
	// canceled/deadline) before the explorer returns the context error.
	Failed []OrderError
	// Evaluated records the score of every successful order, in trial
	// order.
	Evaluated []OrderScore
	// Stats reports pool size and prefix-cache effectiveness.
	Stats ExploreStats
}

// ExploreNetOrders explores net orderings without cancellation support;
// see ExploreNetOrdersCtx.
func ExploreNetOrders(b *board.Board, opt RouteOptions) (*OrderExploration, error) {
	return ExploreNetOrdersCtx(context.Background(), b, opt)
}

// ExploreNetOrdersCtx routes the board under multiple net orderings and
// keeps the one with the lowest current-weighted total resistance.
// Sequential routing gives earlier nets first claim on shared space, so the
// order is a genuine design variable — this is the paper's Fig. 2
// exploration loop applied to a parameter the paper leaves implicit. For up
// to four nets (or always, with opt.ExploreAllOrders) every permutation is
// tried in lexicographic order; beyond that, all rotations of the id
// order. opt.ExploreMaxOrders truncates the sweep.
//
// Orders are explored over a shared permutation tree with a bounded
// worker pool (opt.ExploreWorkers, default GOMAXPROCS): orders that share
// a prefix share the routed prefix snapshot, so each distinct prefix is
// routed once (see DESIGN.md "Exploration scaling"). The result is
// bit-identical to routing every order sequentially from scratch; the
// differential test suite holds the explorer to that reference loop.
//
// Each order is routed with FailFast enabled so that an order which
// strands a net registers as a failed order (collected in Failed) rather
// than silently scoring a degraded board. When every order fails, the
// returned exploration still carries the per-order errors alongside a
// non-nil error.
func ExploreNetOrdersCtx(ctx context.Context, b *board.Board, opt RouteOptions) (out *OrderExploration, err error) {
	defer recoverToError(&err)
	ids, err := routableNets(b, opt.Layer)
	if err != nil {
		return nil, err
	}
	return exploreOutcome(exploreParallel(ctx, b, opt, exploreOrders(ids, opt)))
}

// routableNets lists the nets with at least two groups on layer — the
// nets an order permutes.
func routableNets(b *board.Board, layer int) ([]board.NetID, error) {
	var ids []board.NetID
	for _, n := range b.Nets {
		if len(b.GroupsOn(n.ID, layer)) >= 2 {
			ids = append(ids, n.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("sprout: no routable nets on layer %d", layer)
	}
	return ids, nil
}

// exploreOutcome turns a finished sweep without a winner into an error
// that carries the first order's failure.
func exploreOutcome(out *OrderExploration, err error) (*OrderExploration, error) {
	if err != nil {
		return out, err
	}
	if out.Best == nil {
		if len(out.Failed) > 0 {
			return out, fmt.Errorf("sprout: all %d net orders failed; first failure: %w",
				len(out.Failed), out.Failed[0].Err)
		}
		return out, fmt.Errorf("sprout: no net order routed successfully")
	}
	return out, nil
}

// exploreOrders enumerates the orderings to try: lexicographic
// permutations for small boards (or when forced), rotations otherwise,
// truncated at opt.ExploreMaxOrders. Lexicographic enumeration maximizes
// shared prefixes between consecutive orders, which is what the prefix
// tree memoizes; it is deterministic, so a truncated sweep is a
// reproducible prefix of the full one.
func exploreOrders(ids []board.NetID, opt RouteOptions) [][]board.NetID {
	max := opt.ExploreMaxOrders
	if len(ids) <= 4 || opt.ExploreAllOrders {
		return lexPermutations(ids, max)
	}
	var orders [][]board.NetID
	for shift := range ids {
		if max > 0 && len(orders) >= max {
			break
		}
		rot := make([]board.NetID, 0, len(ids))
		rot = append(rot, ids[shift:]...)
		rot = append(rot, ids[:shift]...)
		orders = append(orders, rot)
	}
	return orders
}

// lexPermutations enumerates permutations of ids in lexicographic order
// of positions, stopping after max orders (0 = all).
func lexPermutations(ids []board.NetID, max int) [][]board.NetID {
	base := append([]board.NetID(nil), ids...)
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	var out [][]board.NetID
	used := make([]bool, len(base))
	perm := make([]board.NetID, 0, len(base))
	var rec func() bool
	rec = func() bool {
		if len(perm) == len(base) {
			out = append(out, append([]board.NetID(nil), perm...))
			return max > 0 && len(out) >= max
		}
		for i, id := range base {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, id)
			if rec() {
				return true
			}
			perm = perm[:len(perm)-1]
			used[i] = false
		}
		return false
	}
	rec()
	return out
}

// orderError builds the Failed record for one order, classifying the
// error and attributing it to the failing rail when possible.
func orderError(order []board.NetID, err error) OrderError {
	oe := OrderError{Order: order, Err: err, FailedNet: board.NetNone, Kind: OrderKindRoute}
	var re *RailError
	if errors.As(err, &re) {
		oe.FailedNet = re.Net
	}
	var pe *PanicError
	var se *sparse.SolveError
	switch {
	case errors.Is(err, context.Canceled):
		oe.Kind = OrderKindCanceled
	case errors.Is(err, context.DeadlineExceeded):
		oe.Kind = OrderKindDeadline
	case errors.As(err, &pe):
		oe.Kind = OrderKindPanic
	case errors.As(err, &se):
		oe.Kind = OrderKindSolve
	}
	return oe
}

// weightedResistance scores a routed board: Σ I_net · R_net, an IR-drop
// proxy comparable across orders.
func weightedResistance(b *board.Board, res *BoardResult) (float64, error) {
	var score float64
	for _, rail := range res.Rails {
		if rail.Extract == nil {
			return 0, fmt.Errorf("sprout: order exploration needs extraction enabled")
		}
		net, err := b.Net(rail.Net)
		if err != nil {
			return 0, err
		}
		w := net.Current
		if w <= 0 {
			w = 1
		}
		score += w * rail.Extract.ResistanceOhms
	}
	return score, nil
}
