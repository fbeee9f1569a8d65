package sprout

import (
	"context"

	"sprout/internal/board"
)

// ExploreSequential runs the reference explorer over the same orders
// ExploreNetOrdersCtx enumerates: each order routed from scratch through
// RouteBoardCtx, one at a time. It ignores ExploreWorkers and the
// checkpoint knobs. The differential suite holds ExploreNetOrdersCtx to
// its result bit for bit.
func ExploreSequential(ctx context.Context, b *board.Board, opt RouteOptions) (out *OrderExploration, err error) {
	defer recoverToError(&err)
	ids, err := routableNets(b, opt.Layer)
	if err != nil {
		return nil, err
	}
	return exploreOutcome(exploreSequential(ctx, b, opt, exploreOrders(ids, opt)))
}
