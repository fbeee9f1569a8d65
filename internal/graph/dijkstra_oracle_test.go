package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dijkstraHeapOracle is Dijkstra over container/heap, kept verbatim as the
// reference the typed heap must reproduce: the same pushes and pops, so
// the same dist and prev, equal-distance ties included.
func (g *Graph) dijkstraHeapOracle(src int) (dist []float64, prev []int, err error) {
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
	pq := &oracleHeap{}
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

// oracleHeap is the container/heap binary min-heap of distItems.
type oracleHeap []distItem

func (h oracleHeap) Len() int            { return len(h) }
func (h oracleHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h oracleHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// randomTieGraph draws a graph on n nodes with m edge attempts whose
// weights are small integers, zero included, so equal path lengths (and
// so heap ties) are common; parallel edges are kept.
func randomTieGraph(rng *rand.Rand, n, m, maxW int) *Graph {
	g := New(n)
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v, float64(rng.Intn(maxW+1)))
		}
	}
	return g
}

// checkDijkstraMatchesOracle compares Dijkstra with the oracle from every
// source of g, bit for bit.
func checkDijkstraMatchesOracle(t *testing.T, g *Graph) {
	t.Helper()
	for src := 0; src < g.N(); src++ {
		dist, prev, err := g.Dijkstra(src)
		wantDist, wantPrev, wantErr := g.dijkstraHeapOracle(src)
		if err != nil || wantErr != nil {
			t.Fatalf("src %d: err %v, oracle err %v", src, err, wantErr)
		}
		for i := range wantDist {
			if math.Float64bits(dist[i]) != math.Float64bits(wantDist[i]) || prev[i] != wantPrev[i] {
				t.Fatalf("src %d node %d: dist %v prev %d, oracle dist %v prev %d",
					src, i, dist[i], prev[i], wantDist[i], wantPrev[i])
			}
		}
	}
}

func TestDijkstraMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		g := randomTieGraph(rng, n, rng.Intn(4*n+1), 1+rng.Intn(4))
		checkDijkstraMatchesOracle(t, g)
	}
	if _, _, err := New(3).Dijkstra(3); err == nil {
		t.Fatal("out-of-range source must error")
	}
}

// FuzzDijkstraMatchesOracle builds a graph from the fuzz bytes, three per
// edge attempt (endpoints and a weight in 0..3), and checks Dijkstra
// against the container/heap oracle from every source.
func FuzzDijkstraMatchesOracle(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 1, 2, 1, 0, 2, 2, 2, 3, 0})
	f.Add(uint8(6), []byte{0, 1, 0, 0, 2, 0, 1, 3, 1, 2, 3, 1, 3, 4, 2, 0, 4, 3})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := 1 + int(nb)%48
		g := New(n)
		for k := 0; k+2 < len(data); k += 3 {
			u, v := int(data[k])%n, int(data[k+1])%n
			if u != v {
				_ = g.AddEdge(u, v, float64(data[k+2]%4))
			}
		}
		checkDijkstraMatchesOracle(t, g)
	})
}
