package graph

import (
	"fmt"
	"math"
)

// Dijkstra computes single-source shortest path distances and predecessor
// links from src, where an edge of stored weight w costs cost(w): callers
// differ in how a weight becomes a path cost (the seed takes 1/w of a
// conductance, the multilayer planner the weight itself). A cost must not
// be negative; an edge whose cost is +Inf or NaN (1/w at w = 0, say)
// relaxes nothing, as if it were absent. Unreachable nodes have distance
// +Inf and predecessor -1. Complexity O((V+E) log V) as analyzed in paper
// Eq. 6. The priority queue is a typed binary heap that moves entries
// exactly as container/heap would, so equal-distance ties settle in the
// same order without boxing an entry per push (TestDijkstraMatchesOracle
// pins dist and prev).
func (g *Graph) Dijkstra(src int, cost func(w float64) float64) (dist []float64, prev []int, err error) {
	n := g.N()
	if src < 0 || src >= n {
		return nil, nil, fmt.Errorf("graph: dijkstra source %d out of range", src)
	}
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := distHeap{{src, 0}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.node] {
			continue // stale entry
		}
		to, w := g.Adj(it.node)
		for k, v := range to {
			if nd := it.d + cost(w[k]); nd < dist[v] {
				dist[v] = nd
				prev[v] = it.node
				pq.push(distItem{v, nd})
			}
		}
	}
	return dist, prev, nil
}

// ShortestPaths returns minimum-cost paths under the cost rule from src to
// each dst (inclusive), sharing a single Dijkstra pass (paper Alg. 2 line 4
// computes one-to-many paths). It returns an error when a dst is out of
// range or unreachable.
func (g *Graph) ShortestPaths(src int, dsts []int, cost func(w float64) float64) ([][]int, error) {
	dist, prev, err := g.Dijkstra(src, cost)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(dsts))
	for i, dst := range dsts {
		path, err := extractPath(dist, prev, src, dst)
		if err != nil {
			return nil, err
		}
		out[i] = path
	}
	return out, nil
}

func extractPath(dist []float64, prev []int, src, dst int) ([]int, error) {
	if dst < 0 || dst >= len(dist) {
		return nil, fmt.Errorf("graph: path target %d out of range", dst)
	}
	if math.IsInf(dist[dst], 1) {
		return nil, fmt.Errorf("graph: no path from %d to %d", src, dst)
	}
	var rev []int
	for u := dst; u != -1; u = prev[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// distItem is a priority-queue element.
type distItem struct {
	node int
	d    float64
}

// distHeap is a binary min-heap of distItems on d. push and pop are
// container/heap's Push and Pop with its up and down steps spelled out on
// the typed slice.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2 // right child
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
