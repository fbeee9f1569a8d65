package route

import (
	"cmp"
	"context"
	"slices"

	"sprout/internal/obs"
)

// removeLowCurrent removes up to k non-terminal member nodes in ascending
// node-current order, skipping any removal that would disconnect the
// terminals (paper Alg. 5 lines 3-6; the connectivity guard is required in
// practice: the minimum-current node can be a bridge behind a terminal).
// It returns the removed ids.
//
// The guard is exact: it keeps a removal exactly when a full search of
// the shrunken mask would find the terminals connected. One full search on
// entry settles the disconnected case, where no removal can reconnect the
// terminals and nothing is removed. From a connected mask, removing a node
// with at most one member neighbour disconnects nothing, and removing any
// other node keeps the terminals connected when its member neighbours still
// reach one another; a search bounded by localSearchBudget tries to show
// that, and only when it fails does a full search decide. All searches run
// in s, so trying a candidate allocates nothing.
func (tg *TileGraph) removeLowCurrent(s *connScratch, members []bool, nodeCurrent []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	if !tg.terminalsConnected(s, members) {
		return nil // no removal can reconnect the terminals
	}
	s.cands = s.cands[:0]
	for id, in := range members {
		if in && !tg.IsTerminal(id) {
			s.cands = append(s.cands, lowCand{id, nodeCurrent[id]})
		}
	}
	slices.SortFunc(s.cands, func(a, b lowCand) int {
		if c := cmp.Compare(a.cur, b.cur); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	removed := make([]int, 0, k)
	for _, c := range s.cands {
		if len(removed) >= k {
			break
		}
		members[c.id] = false
		if tg.removalKeepsConnected(s, members, c.id) {
			removed = append(removed, c.id)
		} else {
			members[c.id] = true // bridge node: keep it
		}
	}
	return removed
}

// lowCand is a removal candidate of removeLowCurrent.
type lowCand struct {
	id  int
	cur float64
}

// localSearchBudget caps the nodes the erosion guard's local search may
// visit before it hands the decision to a full search. Around a tile of a
// grid-like graph the member neighbours reconnect within a few rings, so a
// small budget settles almost every candidate.
const localSearchBudget = 64

// connScratch is the reusable state of the erosion guard's searches. Visit
// marks are epoch stamps, so a new search starts with one increment
// instead of clearing a node-sized slice. A pipeline keeps one in its
// SolveCache.
type connScratch struct {
	mark  []uint32
	epoch uint32
	queue []int
	nbrs  []int
	cands []lowCand
}

// begin starts a search over n nodes: afterwards no node is marked and the
// queue is empty.
func (s *connScratch) begin(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide
		clear(s.mark)
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

// visit marks v and reports whether it was unmarked in this search.
func (s *connScratch) visit(v int) bool {
	if s.mark[v] == s.epoch {
		return false
	}
	s.mark[v] = s.epoch
	return true
}

// removalKeepsConnected reports whether the terminals are still connected
// within members, which was connected before node c left it.
func (tg *TileGraph) removalKeepsConnected(s *connScratch, members []bool, c int) bool {
	s.begin(tg.G.N())
	s.nbrs = s.nbrs[:0]
	to, _ := tg.G.Adj(c)
	for _, v := range to {
		if members[v] && s.visit(v) {
			s.nbrs = append(s.nbrs, v)
		}
	}
	if len(s.nbrs) <= 1 {
		return true // an isolated or leaf node carries no path
	}
	if tg.neighboursReconnect(s, members) {
		return true
	}
	return tg.terminalsConnected(s, members)
}

// neighboursReconnect searches members from s.nbrs[0] for the other nodes
// of s.nbrs, giving up after localSearchBudget visits. True means they are
// all mutually connected; false means the search could not show it.
func (tg *TileGraph) neighboursReconnect(s *connScratch, members []bool) bool {
	s.begin(tg.G.N())
	s.visit(s.nbrs[0])
	s.queue = append(s.queue, s.nbrs[0])
	missing := len(s.nbrs) - 1
	for head := 0; head < len(s.queue) && head < localSearchBudget; head++ {
		to, _ := tg.G.Adj(s.queue[head])
		for _, v := range to {
			if !members[v] || !s.visit(v) {
				continue
			}
			s.queue = append(s.queue, v)
			if slices.Contains(s.nbrs[1:], v) {
				missing--
			}
		}
		if missing == 0 {
			return true
		}
	}
	return false
}

// TerminalsConnected reports whether all terminals are mutually reachable
// within the member mask (exported for audits and ablation baselines).
func (tg *TileGraph) TerminalsConnected(members []bool) bool {
	return tg.terminalsConnected(new(connScratch), members)
}

// terminalsConnected reports whether all terminals are mutually reachable
// within the member mask, searching breadth-first from the first terminal.
func (tg *TileGraph) terminalsConnected(s *connScratch, members []bool) bool {
	start := tg.Terminals[0]
	if !members[start] {
		return false
	}
	s.begin(tg.G.N())
	s.visit(start)
	s.queue = append(s.queue, start)
	for head := 0; head < len(s.queue); head++ {
		to, _ := tg.G.Adj(s.queue[head])
		for _, v := range to {
			if members[v] && s.visit(v) {
				s.queue = append(s.queue, v)
			}
		}
	}
	for _, t := range tg.Terminals {
		if s.mark[t] != s.epoch {
			return false
		}
	}
	return true
}

// SmartRefineCtx performs one refinement step (paper Algorithm 5): remove
// the k lowest-current nodes, then re-grow as many nodes at the
// highest-current boundary. m must hold the metrics of members as
// received; the step evaluates the pruned and the re-grown mask once each
// and returns the metrics of the mask it leaves — m itself when no node
// could be removed. The pruned mask's metrics never leave the step, so it
// hands them back to warm once the re-grow has replaced them.
func (tg *TileGraph) SmartRefineCtx(ctx context.Context, members []bool, m *Metrics, k int, warm *SolveCache) (*Metrics, error) {
	removed := tg.removeLowCurrent(warm.guardScratch(), members, m.NodeCurrent, k)
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
	if err != nil {
		return nil, err
	}
	return warm.advance(pruned, next), nil
}

// ErodeCtx removes member nodes in ascending current order until the
// member area drops to at most areaMax (the erosion operation of the
// reheating stage, §II-F). m must hold the metrics of members as received.
// Each batch of at most `batch` removals is chosen by the current metrics
// and followed by one evaluation of the shrunken mask, so the removals
// track the shifting current distribution. It returns the metrics of the
// mask it leaves — m itself when nothing was removed. The metrics of the
// intermediate masks never leave the step, so each is handed back to warm
// once the next batch has replaced it; m stays the caller's.
func (tg *TileGraph) ErodeCtx(ctx context.Context, members []bool, m *Metrics, areaMax int64, batch int, warm *SolveCache) (*Metrics, error) {
	if batch < 1 {
		batch = 1
	}
	tileArea := tg.DX * tg.DY
	guard := warm.guardScratch()
	in := m
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
		removed := tg.removeLowCurrent(guard, members, m.NodeCurrent, k)
		obs.Event(ctx, "erode.batch", obs.A("requested", k), obs.A("removed", len(removed)))
		if len(removed) == 0 {
			return m, nil // nothing removable without disconnecting terminals
		}
		next, err := tg.NodeCurrentsCtx(ctx, members, warm)
		if err != nil {
			return nil, err
		}
		if m != in {
			warm.release(m)
		}
		m = next
	}
}
