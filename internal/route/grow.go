package route

import (
	"cmp"
	"context"
	"slices"

	"sprout/internal/obs"
)

// SmartGrow grows the subgraph without cancellation support; see
// SmartGrowCtx.
func (tg *TileGraph) SmartGrow(members []bool, m *Metrics, k int, warm *SolveCache) ([]int, *Metrics, error) {
	return tg.SmartGrowCtx(context.Background(), members, m, k, warm)
}

// SmartGrowCtx adds up to k boundary nodes to the member subgraph, choosing
// the candidates adjacent to the members with the highest node current
// (paper Algorithm 4). m must hold the metrics of members as received; the
// step scores the candidates with them and evaluates the grown mask once.
// It returns the ids actually added and the metrics of the mask it leaves —
// m itself when nothing was added. The caller is responsible for stopping
// at the area budget.
func (tg *TileGraph) SmartGrowCtx(ctx context.Context, members []bool, m *Metrics, k int, warm *SolveCache) ([]int, *Metrics, error) {
	added := tg.growByCurrent(members, m.NodeCurrent, k)
	obs.Event(ctx, "grow.batch", obs.A("requested", k), obs.A("added", len(added)))
	if len(added) == 0 {
		return nil, m, nil
	}
	next, err := tg.NodeCurrentsCtx(ctx, members, warm)
	if err != nil {
		return nil, nil, err
	}
	return added, next, nil
}

// growByCurrent scores every boundary candidate by the summed node current
// of its member neighbours (paper Alg. 4 lines 7-8) and admits the top k.
func (tg *TileGraph) growByCurrent(members []bool, nodeCurrent []float64, k int) []int {
	boundary := tg.G.Boundary(members)
	if len(boundary) == 0 || k <= 0 {
		return nil
	}
	type cand struct {
		id    int
		score float64
	}
	cands := make([]cand, 0, len(boundary))
	for _, c := range boundary {
		score := 0.0
		tg.G.Neighbors(c, func(v int, w float64) {
			if members[v] {
				score += nodeCurrent[v]
			}
		})
		cands = append(cands, cand{c, score})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id) // deterministic tie-break
	})
	if k > len(cands) {
		k = len(cands)
	}
	added := make([]int, 0, k)
	for _, c := range cands[:k] {
		members[c.id] = true
		added = append(added, c.id)
	}
	return added
}

// Dilate adds the entire boundary to the subgraph (the dilation operation
// of the reheating stage, paper §II-F). It returns the number of nodes
// added.
func (tg *TileGraph) Dilate(members []bool) int {
	boundary := tg.G.Boundary(members)
	for _, id := range boundary {
		members[id] = true
	}
	return len(boundary)
}
