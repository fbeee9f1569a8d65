package route

import (
	"context"
	"sort"

	"sprout/internal/obs"
)

// removeLowCurrent removes up to k non-terminal member nodes in ascending
// node-current order, skipping any removal that would disconnect the
// terminals (paper Alg. 5 lines 3-6; the connectivity guard is required in
// practice: the minimum-current node can be a bridge behind a terminal).
// It returns the removed ids.
func (tg *TileGraph) removeLowCurrent(members []bool, nodeCurrent []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	type cand struct {
		id  int
		cur float64
	}
	var cands []cand
	for id, in := range members {
		if in && !tg.IsTerminal(id) {
			cands = append(cands, cand{id, nodeCurrent[id]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		//lint:ignore floateq sort comparators need exact comparison: an epsilon tie-break is not transitive and breaks strict weak ordering
		if cands[i].cur != cands[j].cur {
			return cands[i].cur < cands[j].cur
		}
		return cands[i].id < cands[j].id
	})
	removed := make([]int, 0, k)
	for _, c := range cands {
		if len(removed) >= k {
			break
		}
		members[c.id] = false
		if tg.terminalsConnected(members) {
			removed = append(removed, c.id)
		} else {
			members[c.id] = true // bridge node: keep it
		}
	}
	return removed
}

// TerminalsConnected reports whether all terminals are mutually reachable
// within the member mask (exported for audits and ablation baselines).
func (tg *TileGraph) TerminalsConnected(members []bool) bool {
	return tg.terminalsConnected(members)
}

// terminalsConnected reports whether all terminals are mutually reachable
// within the member mask.
func (tg *TileGraph) terminalsConnected(members []bool) bool {
	// BFS from the first terminal restricted to members.
	start := tg.Terminals[0]
	if !members[start] {
		return false
	}
	seen := make([]bool, tg.G.N())
	seen[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		tg.G.Neighbors(u, func(v int, w float64) {
			if members[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		})
	}
	for _, t := range tg.Terminals {
		if !seen[t] {
			return false
		}
	}
	return true
}

// SmartRefine performs one refinement step without cancellation support;
// see SmartRefineCtx.
func (tg *TileGraph) SmartRefine(members []bool, m *Metrics, k int, warm *SolveCache) (*Metrics, error) {
	return tg.SmartRefineCtx(context.Background(), members, m, k, warm)
}

// SmartRefineCtx performs one refinement step (paper Algorithm 5): remove
// the k lowest-current nodes, then re-grow as many nodes at the
// highest-current boundary. m must hold the metrics of members as
// received; the step evaluates the pruned and the re-grown mask once each
// and returns the metrics of the mask it leaves — m itself when no node
// could be removed.
func (tg *TileGraph) SmartRefineCtx(ctx context.Context, members []bool, m *Metrics, k int, warm *SolveCache) (*Metrics, error) {
	removed := tg.removeLowCurrent(members, m.NodeCurrent, k)
	obs.Event(ctx, "refine.swap", obs.A("requested", k), obs.A("swapped", len(removed)))
	if len(removed) == 0 {
		return m, nil
	}
	pruned, err := tg.NodeCurrentsCtx(ctx, members, warm)
	if err != nil {
		return nil, err
	}
	// Re-grow exactly as many nodes as were removed (Alg. 5 line 7 calls
	// SmartGrow with k).
	_, next, err := tg.SmartGrowCtx(ctx, members, pruned, len(removed), warm)
	return next, err
}

// Erode erodes to the area budget without cancellation support; see
// ErodeCtx.
func (tg *TileGraph) Erode(members []bool, m *Metrics, areaMax int64, batch int, warm *SolveCache) (*Metrics, error) {
	return tg.ErodeCtx(context.Background(), members, m, areaMax, batch, warm)
}

// ErodeCtx removes member nodes in ascending current order until the
// member area drops to at most areaMax (the erosion operation of the
// reheating stage, §II-F). m must hold the metrics of members as received.
// Each batch of at most `batch` removals is chosen by the current metrics
// and followed by one evaluation of the shrunken mask, so the removals
// track the shifting current distribution. It returns the metrics of the
// mask it leaves — m itself when nothing was removed.
func (tg *TileGraph) ErodeCtx(ctx context.Context, members []bool, m *Metrics, areaMax int64, batch int, warm *SolveCache) (*Metrics, error) {
	if batch < 1 {
		batch = 1
	}
	tileArea := tg.DX * tg.DY
	for {
		over := tg.MembersArea(members) - areaMax
		if over <= 0 {
			return m, nil
		}
		// Remove only as many nodes as the excess area requires, capped at
		// the batch size, so erosion lands on the budget instead of
		// undershooting it.
		k := int((over + tileArea - 1) / tileArea)
		if k < 1 {
			k = 1
		}
		if k > batch {
			k = batch
		}
		removed := tg.removeLowCurrent(members, m.NodeCurrent, k)
		obs.Event(ctx, "erode.batch", obs.A("requested", k), obs.A("removed", len(removed)))
		if len(removed) == 0 {
			return m, nil // nothing removable without disconnecting terminals
		}
		next, err := tg.NodeCurrentsCtx(ctx, members, warm)
		if err != nil {
			return nil, err
		}
		m = next
	}
}
