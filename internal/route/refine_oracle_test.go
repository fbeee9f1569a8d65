package route

import "sort"

// removeLowCurrentOracle is the original erosion guard, kept as the
// reference removeLowCurrent must reproduce exactly: every candidate is
// tried by removing it and running a full breadth-first search of the
// mask from a fresh visited set. Its comparator's exact float comparison
// is deliberate: an epsilon tie-break would not be a strict weak order.
func (tg *TileGraph) removeLowCurrentOracle(members []bool, nodeCurrent []float64, k int) []int {
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
		if tg.terminalsConnectedOracle(members) {
			removed = append(removed, c.id)
		} else {
			members[c.id] = true // bridge node: keep it
		}
	}
	return removed
}

// terminalsConnectedOracle reports whether all terminals are mutually
// reachable within the member mask.
func (tg *TileGraph) terminalsConnectedOracle(members []bool) bool {
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
