package route

import (
	"cmp"
	"context"
	"slices"

	"sprout/internal/obs"
)

// SmartGrowCtx adds up to k boundary nodes to the member subgraph, choosing
// the candidates adjacent to the members with the highest node current
// (paper Algorithm 4). m must hold the metrics of members as received; the
// step scores the candidates with them and evaluates the grown mask once.
// It returns the ids actually added and the metrics of the mask it leaves —
// m itself when nothing was added. The caller is responsible for stopping
// at the area budget.
func (tg *TileGraph) SmartGrowCtx(ctx context.Context, members []bool, m *Metrics, k int, warm *SolveCache) ([]int, *Metrics, error) {
	added := tg.growByCurrent(warm.growScratch(), members, m.NodeCurrent, k)
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

// growScratch is SmartGrow's reusable candidate state. A pipeline keeps
// one in its SolveCache.
type growScratch struct {
	seen     []bool // Boundary visit marks, all false between calls
	boundary []int
	cands    []growCand
}

// growCand is a boundary candidate of growByCurrent.
type growCand struct {
	id    int
	score float64
}

// growByCurrent scores every boundary candidate by the summed node current
// of its member neighbours (paper Alg. 4 lines 7-8) and admits the top k.
// The boundary and the candidates are built in s.
func (tg *TileGraph) growByCurrent(s *growScratch, members []bool, nodeCurrent []float64, k int) []int {
	if len(s.seen) != tg.G.N() {
		s.seen = make([]bool, tg.G.N())
	}
	s.boundary = tg.G.BoundaryInto(s.boundary, s.seen, members)
	if len(s.boundary) == 0 || k <= 0 {
		return nil
	}
	s.cands = s.cands[:0]
	for _, c := range s.boundary {
		score := 0.0
		to, _ := tg.G.Adj(c)
		for _, v := range to {
			if members[v] {
				score += nodeCurrent[v]
			}
		}
		s.cands = append(s.cands, growCand{c, score})
	}
	slices.SortFunc(s.cands, func(a, b growCand) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id) // deterministic tie-break
	})
	k = min(k, len(s.cands))
	added := make([]int, 0, k)
	for _, c := range s.cands[:k] {
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
