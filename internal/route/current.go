package route

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// Metrics is the result of one node-current evaluation (paper Algorithm 3)
// over the current subgraph.
type Metrics struct {
	// NodeCurrent holds the per-node current metric indexed by full-graph
	// node id (zero outside the terminal component): the sum over terminal
	// pairs of the absolute currents in the node's incident subgraph
	// edges. The buffer belongs to whoever received the Metrics. Only the
	// pipeline hands it back, for a mask it has left, and only then does
	// a later evaluation through the same SolveCache refill it
	// (DESIGN.md §5g); a Metrics returned to an exported caller is never
	// reused.
	NodeCurrent []float64
	// Resistance is the injection-weighted sum of pairwise effective
	// resistances of the subgraph — the objective R(Γ_n^s, Θ_n) of paper
	// Eq. 5 (in relative "squares" units; extraction converts to ohms).
	Resistance float64
	// PairResistance lists the effective resistance of each terminal pair
	// in pair order (i<j lexicographic).
	PairResistance []float64
	// Solve summarizes the solver-ladder telemetry of this evaluation's
	// pair solves.
	Solve sparse.SolveStats
}

// SolveCache keeps per-pair voltage solutions keyed by full-graph node id so
// successive SmartGrow/SmartRefine iterations warm-start the CG solver on
// nearly identical systems. It also owns the solver session (DESIGN.md
// §5g), whose arenas for the terminal component's adjacency, Laplacian,
// preconditioner, and per-worker scratch are rebuilt in place for every
// evaluated mask.
//
// The cache also keeps the loop's other per-step storage: the NodeCurrent
// buffers of metrics the pipeline has handed back, which later
// evaluations refill instead of allocating node-sized vectors, and the
// grow and erosion-guard scratch.
//
// A SolveCache is single-pipeline state: thread one instance through the
// stages of one route, do not share it across goroutines.
type SolveCache struct {
	pairVolts [][]float64 // pair index -> full-size voltages
	// stats accumulates solver-ladder telemetry across every solve that
	// used this cache — the whole pipeline threads one SolveCache through
	// its stages, so this is the rail's solver summary.
	stats sparse.SolveStats
	// sess is the lazily created solver session.
	sess *solverSession
	// guard is the erosion guard's search state (removeLowCurrent).
	guard connScratch
	// grow is SmartGrow's boundary and candidate scratch.
	grow growScratch
	// spare holds NodeCurrent buffers handed back by release, for
	// nodeCurrentBuf to refill.
	spare [][]float64
	// beforeEval, when set, sees every member mask just before it is
	// evaluated. Production code never sets it; the package's tests use
	// it (export_test.go) to discard the session and to watch the
	// evaluation sequence of a route.
	beforeEval func(members []bool)
}

// NewSolveCache returns an empty cache ready to thread through a pipeline.
func NewSolveCache() *SolveCache { return &SolveCache{} }

// guardScratch returns the cache's erosion-guard search state, or fresh
// state for a nil cache.
func (c *SolveCache) guardScratch() *connScratch {
	if c == nil {
		return new(connScratch)
	}
	return &c.guard
}

// growScratch returns the cache's grow scratch, or fresh scratch for a
// nil cache.
func (c *SolveCache) growScratch() *growScratch {
	if c == nil {
		return new(growScratch)
	}
	return &c.grow
}

// nodeCurrentBuf returns n zeroed entries for a NodeCurrent vector: a
// buffer handed back by release when the cache holds one of that length,
// fresh storage otherwise.
func (c *SolveCache) nodeCurrentBuf(n int) []float64 {
	for c != nil && len(c.spare) > 0 {
		buf := c.spare[len(c.spare)-1]
		c.spare = c.spare[:len(c.spare)-1]
		if len(buf) == n {
			clear(buf)
			return buf
		}
	}
	return make([]float64, n)
}

// release hands back the metrics of a mask the pipeline has left: a later
// evaluation through c refills its NodeCurrent buffer. Only the code that
// produced m, and passed it to no exported caller, may release it; m's
// NodeCurrent is nil afterwards, so a stray read fails loudly.
func (c *SolveCache) release(m *Metrics) {
	if c == nil || m == nil || m.NodeCurrent == nil {
		return
	}
	c.spare = append(c.spare, m.NodeCurrent)
	m.NodeCurrent = nil
}

// advance returns next, the metrics a step left, and releases old, the
// metrics the step received, when the step replaced them.
func (c *SolveCache) advance(old, next *Metrics) *Metrics {
	if next != old {
		c.release(old)
	}
	return next
}

// pairList enumerates the 2-subsets of the terminal list (paper Alg. 3
// line 3, [Θ]²) with their injection weights. The weight of a pair is the
// geometric mean of the two terminals' expected currents, normalized so
// the largest weight is 1: PMIC↔BGA pairs carry more injected current than
// BGA↔BGA pairs, as prescribed in §II-D.
func (tg *TileGraph) pairList() (pairs [][2]int, weights []float64) {
	k := len(tg.Terminals)
	maxW := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, [2]int{i, j})
			w := math.Sqrt(tg.TermCurrent[i] * tg.TermCurrent[j])
			weights = append(weights, w)
			if w > maxW {
				maxW = w
			}
		}
	}
	if maxW > 0 {
		for i := range weights {
			weights[i] /= maxW
		}
	}
	return pairs, weights
}

// pairSolution carries the nodal-analysis results for every terminal pair:
// full-graph-indexed voltage vectors for a unit current injection, and the
// terminal component they were solved on in CSR form — component node ci
// is full node nodes[ci], and its neighbours are nbr[rowPtr[ci]:rowPtr[ci+1]]
// (component indices) with conductances nw. The metric accumulation below
// walks the rows in order, so it is bit-stable.
type pairSolution struct {
	pairs   [][2]int    // terminal index pairs
	weights []float64   // normalized injection weights
	volts   [][]float64 // per pair, full-size voltages (0 outside the component)
	nodes   []int
	rowPtr  []int
	nbr     []int
	nw      []float64
	stats   sparse.SolveStats // ladder telemetry of this call's solves
}

// runPairSolves drains n independent pair solves through a pool of at most
// workers >= 1 goroutines (the paper's runtime was measured on an 8-core
// machine). solveOne is called with a stable worker index below workers so
// workers can own scratch arenas. Each worker writes only its own slots,
// keeping results deterministic. The single-solve case runs inline without
// a context check, matching the historic behavior.
func runPairSolves(ctx context.Context, n, workers int, solveOne func(worker, pi int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return solveOne(0, 0)
	}
	workers = min(workers, n)
	var (
		wg       sync.WaitGroup
		next     int32
		firstErr error
		errOnce  sync.Once
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				pi := int(atomic.AddInt32(&next, 1)) - 1
				if pi >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if err := solveOne(w, pi); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// foldSolveStats folds per-pair ladder traces in pair order — deterministic
// regardless of solve interleaving — and emits the solver telemetry.
func foldSolveStats(ctx context.Context, atts [][]sparse.RungAttempt, lap *sparse.Laplacian, solveStart time.Time) sparse.SolveStats {
	var st sparse.SolveStats
	for _, a := range atts {
		st.Record(a)
	}
	tr := obs.FromContext(ctx)
	if !tr.Enabled() {
		return st
	}
	tr.Histogram(obs.MStageSolve).Observe(float64(time.Since(solveStart)) / 1e6)
	tr.Counter(obs.MSolverSolves).Add(int64(st.Solves))
	tr.Counter(obs.MSolverIterations).Add(int64(st.Iterations))
	tr.Counter(obs.MSolverEscalations).Add(int64(st.Escalations))
	tr.Counter(obs.MSolverFailures).Add(int64(st.Failures))
	tr.Counter(obs.MSolverPrecondPrefix + lap.Preconditioner()).Add(int64(st.Solves))
	for rung, n := range st.Rungs {
		tr.Counter(obs.MSolverRungPrefix + rung).Add(int64(n))
	}
	tr.Histogram(obs.MLaplacianNNZ).Observe(float64(lap.NNZ()))
	for _, as := range atts {
		for _, a := range as {
			tr.Histogram(obs.MSolverCGIterations).Observe(float64(a.Iterations))
			if a.Residual > 0 {
				// Residuals live at 1e-12..1e-6; bucket their
				// negated decimal exponent so the fixed bounds
				// resolve them.
				tr.Histogram(obs.MSolverResidualNegLog10).Observe(-math.Log10(a.Residual))
			}
		}
	}
	return st
}

// NodeCurrentsCtx evaluates the node-current metric over the member
// subgraph (paper Algorithm 3). All terminals must be members and mutually
// connected within the mask. warm may be nil: the evaluation then solves
// cold on a throwaway session. Reused across calls, warm warm-starts the
// CG solves and rebuilds the session into its retained arenas.
func (tg *TileGraph) NodeCurrentsCtx(ctx context.Context, members []bool, warm *SolveCache) (*Metrics, error) {
	sol, err := tg.solvePairs(ctx, members, warm, sparse.StampLaplacian)
	if err != nil {
		return nil, err
	}
	return tg.metrics(sol, warm.nodeCurrentBuf(tg.G.N())), nil
}

// metrics folds the pair solutions into the node-current metric and the
// resistance objective (paper Alg. 3 lines 9-13). nodeCur is the zeroed,
// node-sized NodeCurrent vector to fill.
func (tg *TileGraph) metrics(sol *pairSolution, nodeCur []float64) *Metrics {
	pairRes := make([]float64, len(sol.pairs))
	totalRes := 0.0
	for pi, pr := range sol.pairs {
		v := sol.volts[pi]
		r := v[tg.Terminals[pr[0]]] - v[tg.Terminals[pr[1]]]
		pairRes[pi] = r
		totalRes += sol.weights[pi] * r
		w := sol.weights[pi]
		// Accumulate |I| per incident edge into both endpoints
		// (paper Alg. 3 line 13). Members outside the terminal component
		// carry no current and keep 0.
		for ci, id := range sol.nodes {
			vid := v[id]
			sum := 0.0
			for k := sol.rowPtr[ci]; k < sol.rowPtr[ci+1]; k++ {
				sum += sol.nw[k] * math.Abs(vid-v[sol.nodes[sol.nbr[k]]])
			}
			nodeCur[id] += w * sum
		}
	}
	return &Metrics{NodeCurrent: nodeCur, Resistance: totalRes, PairResistance: pairRes, Solve: sol.stats}
}

// PairVoltagesCtx exposes the per-pair nodal voltages over a member mask
// for downstream extraction: volts[p][nodeID] is the potential of the node
// under a unit current injected into pair p. pairs hold terminal indices
// and weights the normalized injection weights.
func (tg *TileGraph) PairVoltagesCtx(ctx context.Context, members []bool) (volts [][]float64, pairs [][2]int, weights []float64, err error) {
	sol, err := tg.solvePairs(ctx, members, nil, sparse.ReassembleLaplacian)
	if err != nil {
		return nil, nil, nil, err
	}
	return sol.volts, sol.pairs, sol.weights, nil
}
