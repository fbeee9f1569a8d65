package sprout

import (
	"context"

	"sprout/internal/board"
)

// exploreSequential is the retained reference explorer: one order at a
// time, each routed from scratch through RouteBoardCtx. The parallel
// explorer is proven equivalent to this loop; keep the selection logic
// here in lockstep with exploreParallel's reduction.
func exploreSequential(ctx context.Context, b *board.Board, opt RouteOptions, orders [][]board.NetID) (*OrderExploration, error) {
	out := &OrderExploration{Stats: ExploreStats{Orders: len(orders), Workers: 1}}
	for _, order := range orders {
		if cerr := ctx.Err(); cerr != nil {
			return out, cerr
		}
		runOpt := opt
		runOpt.Order = order
		runOpt.FailFast = true
		res, rerr := RouteBoardCtx(ctx, b, runOpt)
		if rerr != nil {
			// Every failed order lands in Failed with its kind — including
			// one interrupted mid-board, so a cancelled sweep still reports
			// which order was in flight when the context fired.
			out.Failed = append(out.Failed, orderError(order, rerr))
			if isCtxErr(rerr) {
				return out, rerr
			}
			continue
		}
		out.Tried++
		score, serr := weightedResistance(b, res)
		if serr != nil {
			return out, serr
		}
		out.Evaluated = append(out.Evaluated, OrderScore{Order: order, Score: score})
		if out.Best == nil || score < out.BestScore {
			out.Best = res
			out.BestScore = score
			out.BestOrder = order
		}
	}
	return out, nil
}
