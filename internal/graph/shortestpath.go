package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Dijkstra computes single-source shortest path distances and predecessor
// links from src. Unreachable nodes have distance +Inf and predecessor -1.
// Complexity O((V+E) log V) as analyzed in paper Eq. 6.
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int, err error) {
	if src < 0 || src >= g.n {
		return nil, nil, fmt.Errorf("graph: dijkstra source %d out of range", src)
	}
	dist = make([]float64, g.n)
	prev = make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &distHeap{}
	heap.Push(pq, distItem{src, 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue // stale entry
		}
		for _, he := range g.adj[it.node] {
			nd := it.d + he.w
			if nd < dist[he.to] {
				dist[he.to] = nd
				prev[he.to] = it.node
				heap.Push(pq, distItem{he.to, nd})
			}
		}
	}
	return dist, prev, nil
}

// ShortestPath returns the node sequence of a minimum-cost path from src to
// dst (inclusive) and its total cost. It returns an error when dst is
// unreachable.
func (g *Graph) ShortestPath(src, dst int) ([]int, float64, error) {
	dist, prev, err := g.Dijkstra(src)
	if err != nil {
		return nil, 0, err
	}
	return extractPath(dist, prev, src, dst)
}

// ShortestPaths returns minimum-cost paths from src to each dst, sharing a
// single Dijkstra pass (paper Alg. 2 line 4 computes one-to-many paths).
func (g *Graph) ShortestPaths(src int, dsts []int) ([][]int, error) {
	dist, prev, err := g.Dijkstra(src)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(dsts))
	for i, dst := range dsts {
		path, _, err := extractPath(dist, prev, src, dst)
		if err != nil {
			return nil, err
		}
		out[i] = path
	}
	return out, nil
}

func extractPath(dist []float64, prev []int, src, dst int) ([]int, float64, error) {
	if dst < 0 || dst >= len(dist) {
		return nil, 0, fmt.Errorf("graph: path target %d out of range", dst)
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, fmt.Errorf("graph: no path from %d to %d", src, dst)
	}
	var rev []int
	for u := dst; u != -1; u = prev[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[dst], nil
}

// distItem is a priority-queue element.
type distItem struct {
	node int
	d    float64
}

// distHeap is a binary min-heap of distItems.
type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
