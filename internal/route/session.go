package route

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// solverSession is the nodal-analysis core (DESIGN.md §5g). It owns the
// structures one evaluation needs — the terminal component of the member
// mask as a CSR adjacency, its grounded Laplacian with the IC(0) factor,
// and per-worker solve scratch — and keeps their arenas across
// evaluations:
//
//   - every evaluation rebuilds the structures for its mask into the
//     retained arenas. The pipeline scores each mask once (SmartGrowCtx,
//     SmartRefineCtx and ErodeCtx pass the metrics of the mask they leave
//     forward), so there is no same-mask case to reuse. The rebuild walks
//     tg.G directly into an ascending component CSR and hands it to the
//     entry point's assembler: the loop (NodeCurrentsCtx) stamps the rows
//     in place with sparse.StampLaplacian, extraction (PairVoltagesCtx)
//     sums through sparse.ReassembleLaplacian's sort, whose ulp-level
//     diagonal order the pinned exploration ties depend on. Either way
//     the system is bit-identical to a from-scratch construction through
//     the same assembler, and downstream solves follow the same float
//     trajectories;
//   - warm-start stall: when the primary rung rejects a warm-started
//     solve, the pair's warm vector is dropped (solver.cache.invalidations)
//     and the ladder re-runs cold at full tolerance instead of settling
//     for the relaxed rung on a stale Krylov space.
//
// A session serves one pipeline at a time; the pair solves inside one
// evaluation still fan out over the worker pool.
type solverSession struct {
	tg *TileGraph

	// The terminal component, numbered in ascending node id, in CSR form:
	// component node ci is full node compNodes[ci], and its neighbours are
	// nbr[rowPtr[ci]:rowPtr[ci+1]] (component indices) with conductances nw.
	compIdx   []int // full node id -> component index, -1 outside
	compNodes []int
	queue     []int // BFS scratch
	rowPtr    []int
	nbr       []int
	nw        []float64

	lap *sparse.Laplacian

	pairs   [][2]int
	weights []float64
	volts   [][]float64            // arena for pairSolution.volts
	atts    [][]sparse.RungAttempt // per-pair ladder traces
	scratch []pairScratch          // per-worker solve scratch

	// invalidations counts dropped warm vectors; bumped atomically from
	// concurrent pair workers.
	invalidations int64
}

// pairScratch is one worker's solve scratch: the grounded staging vectors
// and the CG iteration workspace.
type pairScratch struct {
	ws sparse.Workspace
	b  []float64
	x0 []float64
}

func newSolverSession(tg *TileGraph) *solverSession {
	s := &solverSession{tg: tg}
	s.pairs, s.weights = tg.pairList()
	return s
}

// grow returns s resized to length n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite every
// element. Otherwise the array grows by append's amortized policy, like
// the sparse arenas, because the terminal component gets a little larger
// at every grow step.
func grow[E any](s []E, n int) []E {
	return slices.Grow(s[:0], n)[:n]
}

// assembler builds a grounded Laplacian from a symmetric CSR adjacency
// into reusable storage: sparse.StampLaplacian or
// sparse.ReassembleLaplacian.
type assembler func(dst *sparse.Laplacian, rowPtr, col []int, w []float64, ground int) (*sparse.Laplacian, error)

// rebuild derives the terminal component of the member mask and assembles
// its grounded Laplacian into the session's arenas with assemble (paper
// Alg. 3 on Γ_n[V_n^s]). A BFS from terminal 0 over the members finds the
// component, its nodes are numbered in ascending id, and one filtered pass
// over each node's row of tg.G fills the component CSR. Every row of a
// tile graph ascends (TileGraph.G), so the component rows ascend without
// repeats, as sparse.StampLaplacian requires, and
// sparse.ReassembleLaplacian receives the sorted edge list of a
// from-scratch build: either Laplacian is bit-identical to a fresh one.
// A hand-built graph whose rows do not ascend fails the stamp with its
// named row error.
func (s *solverSession) rebuild(tg *TileGraph, members []bool, assemble assembler) error {
	s.compIdx = grow(s.compIdx, tg.G.N())
	for i := range s.compIdx {
		s.compIdx[i] = -1
	}
	t0 := tg.Terminals[0]
	s.compIdx[t0] = 0
	s.queue = append(s.queue[:0], t0)
	for head := 0; head < len(s.queue); head++ {
		to, _ := tg.G.Adj(s.queue[head])
		for _, v := range to {
			if members[v] && s.compIdx[v] < 0 {
				s.compIdx[v] = 0
				s.queue = append(s.queue, v)
			}
		}
	}
	for _, t := range tg.Terminals {
		if s.compIdx[t] < 0 {
			return fmt.Errorf("route: terminals disconnected within subgraph")
		}
	}

	s.compNodes = s.compNodes[:0]
	for id, c := range s.compIdx {
		if c >= 0 {
			s.compIdx[id] = len(s.compNodes)
			s.compNodes = append(s.compNodes, id)
		}
	}

	// The component is closed under member adjacency, so its index alone
	// filters the neighbours.
	s.rowPtr = append(s.rowPtr[:0], 0)
	s.nbr, s.nw = s.nbr[:0], s.nw[:0]
	for _, id := range s.compNodes {
		to, w := tg.G.Adj(id)
		for k, v := range to {
			if c := s.compIdx[v]; c >= 0 {
				s.nbr = append(s.nbr, c)
				s.nw = append(s.nw, w[k])
			}
		}
		s.rowPtr = append(s.rowPtr, len(s.nbr))
	}
	lap, err := assemble(s.lap, s.rowPtr, s.nbr, s.nw, s.compIdx[t0])
	if err != nil {
		return fmt.Errorf("route: laplacian: %w", err)
	}
	s.lap = lap
	return nil
}

// solvePairs performs the nodal analysis of paper Eq. 3 for every terminal
// pair over the member subgraph. Structures are rebuilt into the session's
// arenas, the Laplacian through assemble, and pair solves run through
// per-worker workspaces, warm-started from the cache's previous
// solutions. A nil warm solves cold on a throwaway cache; being no
// caller's cache, it stays out of solver.cache.rebuilds. Cancelling the
// context aborts the worker pool between pair solves and inside the CG
// iterations.
func (tg *TileGraph) solvePairs(ctx context.Context, members []bool, warm *SolveCache, assemble assembler) (*pairSolution, error) {
	// stage.solve times the whole nodal analysis. The clock is only read
	// when tracing is on, keeping the disabled path byte-identical.
	var solveStart time.Time
	if obs.Enabled(ctx) {
		solveStart = time.Now()
	}
	if len(members) != tg.G.N() {
		return nil, fmt.Errorf("route: member mask len %d, want %d", len(members), tg.G.N())
	}
	for ti, t := range tg.Terminals {
		if !members[t] {
			return nil, fmt.Errorf("route: terminal %d (node %d) outside subgraph", ti, t)
		}
	}
	cached := warm != nil
	if !cached {
		warm = NewSolveCache()
	}
	if warm.beforeEval != nil {
		warm.beforeEval(members)
	}
	s := warm.sess
	if s == nil || s.tg != tg {
		s = newSolverSession(tg)
		warm.sess = s
	}
	if err := s.rebuild(tg, members, assemble); err != nil {
		return nil, err
	}
	pairs, weights := s.pairs, s.weights
	if len(warm.pairVolts) != len(pairs) {
		warm.pairVolts = make([][]float64, len(pairs))
	}
	if len(s.volts) != len(pairs) {
		s.volts = make([][]float64, len(pairs))
	}
	if len(s.atts) != len(pairs) {
		s.atts = make([][]sparse.RungAttempt, len(pairs))
	}
	for i := range s.atts {
		s.atts[i] = nil
	}
	// One GOMAXPROCS read sizes both the scratch and the pool, so every
	// worker index the pool hands out has its scratch.
	workers := max(1, min(runtime.GOMAXPROCS(0), len(pairs)))
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, pairScratch{})
	}
	invBefore := atomic.LoadInt64(&s.invalidations)

	sol := &pairSolution{pairs: pairs, weights: weights, volts: s.volts,
		nodes: s.compNodes, rowPtr: s.rowPtr, nbr: s.nbr, nw: s.nw}

	solveOne := func(w int, pi int) error {
		sc := &s.scratch[w]
		pr := pairs[pi]
		cs, ct := s.compIdx[tg.Terminals[pr[0]]], s.compIdx[tg.Terminals[pr[1]]]
		cn := len(s.compNodes)
		sc.b = grow(sc.b, cn)
		b := sc.b
		for i := range b {
			b[i] = 0
		}
		b[cs] += 1
		b[ct] -= 1
		var x0 []float64
		if wv := warm.pairVolts[pi]; len(wv) == tg.G.N() {
			sc.x0 = grow(sc.x0, cn)
			x0 = sc.x0
			for ci, id := range s.compNodes {
				x0[ci] = wv[id]
			}
		}
		v, attempts, err := s.lap.SolveCtx(ctx, b, x0, &sc.ws)
		if x0 != nil && len(attempts) > 0 && attempts[0].Err != nil && ctx.Err() == nil {
			// Warm-start stall: the primary rung rejected the warm
			// vector (stale after a component change, or otherwise
			// poisoned). Drop it and re-run the ladder cold at full
			// tolerance rather than accepting a relaxed-rung answer
			// seeded by a bad Krylov space.
			atomic.AddInt64(&s.invalidations, 1)
			warm.pairVolts[pi] = nil
			failed := attempts[0]
			v, attempts, err = s.lap.SolveCtx(ctx, b, nil, &sc.ws)
			combined := make([]sparse.RungAttempt, 0, len(attempts)+1)
			combined = append(combined, failed)
			attempts = append(combined, attempts...)
		}
		s.atts[pi] = attempts
		if err != nil {
			return fmt.Errorf("route: pair %d solve: %w", pi, err)
		}
		// v aliases the worker's workspace; fold it into the pair's
		// retained full-size vector (reused in place when possible).
		full := warm.pairVolts[pi]
		if len(full) != tg.G.N() {
			full = make([]float64, tg.G.N())
		} else {
			for i := range full {
				full[i] = 0
			}
		}
		for ci, id := range s.compNodes {
			full[id] = v[ci]
		}
		warm.pairVolts[pi] = full
		s.volts[pi] = full
		return nil
	}
	solveErr := runPairSolves(ctx, len(pairs), workers, solveOne)
	sol.stats = foldSolveStats(ctx, s.atts, s.lap, solveStart)
	warm.stats.Merge(sol.stats)
	if tr := obs.FromContext(ctx); tr.Enabled() {
		if cached {
			tr.Counter(obs.MSolverCacheRebuilds).Add(1)
		}
		if inv := atomic.LoadInt64(&s.invalidations) - invBefore; inv > 0 {
			tr.Counter(obs.MSolverCacheInvalidations).Add(inv)
		}
	}
	if solveErr != nil {
		return nil, solveErr
	}
	return sol, nil
}
