package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dijkstraHeapOracle is Dijkstra over container/heap and the
// insertion-order lists, with each edge costing its stored weight, kept as
// the reference the typed heap must reproduce: the same pushes and pops,
// so the same dist and prev, equal-distance ties included.
func (g *listGraph) dijkstraHeapOracle(src int) (dist []float64, prev []int, err error) {
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

// randomTieEdges draws m edge attempts on n nodes whose weights are small
// integers, zero included, so equal path lengths (and so heap ties) are
// common; parallel edges are kept.
func randomTieEdges(rng *rand.Rand, n, m, maxW int) []Edge {
	var edges []Edge
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{u, v, float64(rng.Intn(maxW + 1))})
		}
	}
	return edges
}

func identity(w float64) float64   { return w }
func reciprocal(w float64) float64 { return 1 / w }

// reciprocalEdges is the explicit cost graph of the reciprocal rule: the
// edges in list order with weight 1/w, those of weight 0 left out.
func reciprocalEdges(edges []Edge) []Edge {
	var out []Edge
	for _, e := range edges {
		if e.Weight > 0 {
			out = append(out, Edge{e.U, e.V, 1 / e.Weight})
		}
	}
	return out
}

// checkDijkstraMatchesOracle compares Dijkstra on FromEdges(n, edges)
// with the oracle from every source, bit for bit, under both cost rules:
// the stored weight against the oracle on the same lists, and the
// reciprocal against the oracle on the explicit 1/w graph.
func checkDijkstraMatchesOracle(t *testing.T, n int, edges []Edge) {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []struct {
		name  string
		cost  func(float64) float64
		edges []Edge
	}{
		{"weight", identity, edges},
		{"reciprocal", reciprocal, reciprocalEdges(edges)},
	} {
		oracle, err := addEdges(n, rule.edges)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < n; src++ {
			dist, prev, err := g.Dijkstra(src, rule.cost)
			wantDist, wantPrev, wantErr := oracle.dijkstraHeapOracle(src)
			if err != nil || wantErr != nil {
				t.Fatalf("%s src %d: err %v, oracle err %v", rule.name, src, err, wantErr)
			}
			for i := range wantDist {
				if math.Float64bits(dist[i]) != math.Float64bits(wantDist[i]) || prev[i] != wantPrev[i] {
					t.Fatalf("%s src %d node %d: dist %v prev %d, oracle dist %v prev %d",
						rule.name, src, i, dist[i], prev[i], wantDist[i], wantPrev[i])
				}
			}
		}
	}
}

func TestDijkstraMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		checkDijkstraMatchesOracle(t, n, randomTieEdges(rng, n, rng.Intn(4*n+1), 1+rng.Intn(4)))
	}
	g, _ := FromEdges(3, nil)
	if _, _, err := g.Dijkstra(3, identity); err == nil {
		t.Fatal("out-of-range source must error")
	}
}

// FuzzDijkstraMatchesOracle builds a graph from the fuzz bytes, three per
// edge attempt (endpoints and a weight in 0..3), and checks Dijkstra
// against the container/heap oracle from every source under both cost
// rules.
func FuzzDijkstraMatchesOracle(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 1, 2, 1, 0, 2, 2, 2, 3, 0})
	f.Add(uint8(6), []byte{0, 1, 0, 0, 2, 0, 1, 3, 1, 2, 3, 1, 3, 4, 2, 0, 4, 3})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := 1 + int(nb)%48
		var edges []Edge
		for k := 0; k+2 < len(data); k += 3 {
			u, v := int(data[k])%n, int(data[k+1])%n
			if u != v {
				edges = append(edges, Edge{u, v, float64(data[k+2] % 4)})
			}
		}
		checkDijkstraMatchesOracle(t, n, edges)
	})
}
