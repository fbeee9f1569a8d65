package route

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// solverSession is the nodal-analysis core (DESIGN.md §5g). It owns the
// structures one evaluation needs — the induced subgraph, the
// terminal-component restriction, the grounded Laplacian with its IC(0)
// factor, and per-worker solve scratch — and keeps their arenas across
// evaluations:
//
//   - every evaluation rebuilds the structures for its mask into the
//     retained arenas. The pipeline scores each mask once (SmartGrowCtx,
//     SmartRefineCtx and ErodeCtx pass the metrics of the mask they leave
//     forward), so there is no same-mask case to reuse. The rebuild
//     replays the loop structure (and sort) of a from-scratch
//     construction, so the assembled system is bit-identical to one and
//     downstream solves follow the same float trajectories;
//   - warm-start stall: when the primary rung rejects a warm-started
//     solve, the pair's warm vector is dropped (solver.cache.invalidations)
//     and the ladder re-runs cold at full tolerance instead of settling
//     for the relaxed rung on a stale Krylov space.
//
// A session serves one pipeline at a time; the pair solves inside one
// evaluation still fan out over the worker pool.
type solverSession struct {
	tg *TileGraph

	// Induced subgraph in CSR form, replicating graph.InducedSubgraph's
	// per-node adjacency insertion order.
	orig   []int // sub index -> full node id (ascending)
	subIdx []int // full node id -> sub index, -1 outside
	rowPtr []int
	nbr    []int
	nw     []float64
	deg    []int // scratch: degree counts, then placement cursors

	// Terminal-component restriction.
	label     []int
	queue     []int
	compNodes []int
	compIdx   []int
	subTerms  []int

	// Edge extraction, replicating graph.Edges() order.
	edges  []subEdge
	cedges []sparse.WeightedEdge

	lap *sparse.Laplacian

	pairs   [][2]int
	weights []float64
	volts   [][]float64                   // arena for pairSolution.volts
	atts    [][]sparse.RungAttempt        // per-pair ladder traces
	scratch []pairScratch                 // per-worker solve scratch
	nbrFn   func(int, func(int, float64)) // cached method value for pairSolution

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

// subEdge mirrors graph.Edge over sub indices.
type subEdge struct {
	u, v int
	w    float64
}

func newSolverSession(tg *TileGraph) *solverSession {
	s := &solverSession{tg: tg}
	s.pairs, s.weights = tg.pairList()
	s.nbrFn = s.neighbors
	return s
}

// neighbors iterates a sub node's adjacency in insertion order, matching
// graph.Graph.Neighbors on the equivalent induced subgraph.
func (s *solverSession) neighbors(si int, fn func(nj int, w float64)) {
	for k := s.rowPtr[si]; k < s.rowPtr[si+1]; k++ {
		fn(s.nbr[k], s.nw[k])
	}
}

// growi and growf reuse a slice's backing array when it is large enough.
// Contents are unspecified; callers overwrite every element.
func growi(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// rebuild re-derives every mask-dependent structure into the session's
// arenas. The loops replay a from-scratch construction over
// graph.InducedSubgraph, graph.Components and graph.Edges exactly — same
// visit order, same sort comparator — so the resulting Laplacian is
// bit-identical to a from-scratch build for the same mask.
func (s *solverSession) rebuild(tg *TileGraph, members []bool) error {
	n := tg.G.N()
	s.subIdx = growi(s.subIdx, n)
	for i := range s.subIdx {
		s.subIdx[i] = -1
	}
	s.orig = s.orig[:0]
	for id, in := range members {
		if in {
			s.subIdx[id] = len(s.orig)
			s.orig = append(s.orig, id)
		}
	}
	sn := len(s.orig)

	// Two passes over the full graph's adjacency replicate the
	// InducedSubgraph append order: pass 1 counts degrees, pass 2 places
	// neighbors with per-node cursors. Both walk edges (u, v>u) in the
	// identical order AddEdge would, so per-node neighbor order matches.
	s.deg = growi(s.deg, sn)
	for i := range s.deg {
		s.deg[i] = 0
	}
	var u int
	count := func(v int, _ float64) {
		if v > u {
			if nv := s.subIdx[v]; nv >= 0 {
				s.deg[s.subIdx[u]]++
				s.deg[nv]++
			}
		}
	}
	for _, uu := range s.orig {
		u = uu
		tg.G.Neighbors(u, count)
	}
	s.rowPtr = growi(s.rowPtr, sn+1)
	s.rowPtr[0] = 0
	for i := 0; i < sn; i++ {
		s.rowPtr[i+1] = s.rowPtr[i] + s.deg[i]
		s.deg[i] = s.rowPtr[i] // reuse as placement cursor
	}
	nnz := s.rowPtr[sn]
	s.nbr = growi(s.nbr, nnz)
	s.nw = growf(s.nw, nnz)
	place := func(v int, w float64) {
		if v > u {
			if nv := s.subIdx[v]; nv >= 0 {
				nu := s.subIdx[u]
				s.nbr[s.deg[nu]] = nv
				s.nw[s.deg[nu]] = w
				s.deg[nu]++
				s.nbr[s.deg[nv]] = nu
				s.nw[s.deg[nv]] = w
				s.deg[nv]++
			}
		}
	}
	for _, uu := range s.orig {
		u = uu
		tg.G.Neighbors(u, place)
	}

	s.subTerms = s.subTerms[:0]
	for _, t := range tg.Terminals {
		s.subTerms = append(s.subTerms, s.subIdx[t])
	}

	// Component labels by ascending-root BFS — label values match
	// graph.Components regardless of adjacency order.
	s.label = growi(s.label, sn)
	for i := range s.label {
		s.label[i] = -1
	}
	comp := 0
	for i := 0; i < sn; i++ {
		if s.label[i] != -1 {
			continue
		}
		s.label[i] = comp
		s.queue = append(s.queue[:0], i)
		for head := 0; head < len(s.queue); head++ {
			x := s.queue[head]
			for k := s.rowPtr[x]; k < s.rowPtr[x+1]; k++ {
				if y := s.nbr[k]; s.label[y] == -1 {
					s.label[y] = comp
					s.queue = append(s.queue, y)
				}
			}
		}
		comp++
	}
	for _, st := range s.subTerms {
		if s.label[st] != s.label[s.subTerms[0]] {
			return fmt.Errorf("route: terminals disconnected within subgraph")
		}
	}

	tcomp := s.label[s.subTerms[0]]
	s.compIdx = growi(s.compIdx, sn)
	s.compNodes = s.compNodes[:0]
	for i := 0; i < sn; i++ {
		if s.label[i] == tcomp {
			s.compIdx[i] = len(s.compNodes)
			s.compNodes = append(s.compNodes, i)
		} else {
			s.compIdx[i] = -1
		}
	}

	// Edge list in graph.Edges() order: row-major (u < v) collection,
	// then the identical (U, V, Weight) sort. sort.Slice is deterministic
	// for identical input sequences, which this is.
	s.edges = s.edges[:0]
	for uu := 0; uu < sn; uu++ {
		for k := s.rowPtr[uu]; k < s.rowPtr[uu+1]; k++ {
			if vv := s.nbr[k]; uu < vv {
				s.edges = append(s.edges, subEdge{uu, vv, s.nw[k]})
			}
		}
	}
	sort.Slice(s.edges, func(i, j int) bool {
		if s.edges[i].u != s.edges[j].u {
			return s.edges[i].u < s.edges[j].u
		}
		if s.edges[i].v != s.edges[j].v {
			return s.edges[i].v < s.edges[j].v
		}
		return s.edges[i].w < s.edges[j].w
	})
	s.cedges = s.cedges[:0]
	for _, e := range s.edges {
		if s.compIdx[e.u] >= 0 && s.compIdx[e.v] >= 0 {
			s.cedges = append(s.cedges, sparse.WeightedEdge{U: s.compIdx[e.u], V: s.compIdx[e.v], W: e.w})
		}
	}
	ground := s.compIdx[s.subTerms[0]]
	lap, err := sparse.ReassembleLaplacian(s.lap, len(s.compNodes), s.cedges, ground)
	if err != nil {
		return fmt.Errorf("route: laplacian: %w", err)
	}
	s.lap = lap
	return nil
}

// solvePairs performs the nodal analysis of paper Eq. 3 for every terminal
// pair over the member subgraph. Structures are rebuilt into the session's
// arenas and pair solves run through per-worker workspaces, warm-started
// from the cache's previous solutions. A nil warm solves cold on a
// throwaway session; being no cache, it stays out of the solver.cache
// counters. Cancelling the context aborts the worker pool between pair
// solves and inside the CG iterations.
func (tg *TileGraph) solvePairs(ctx context.Context, members []bool, warm *SolveCache) (*pairSolution, error) {
	if warm == nil {
		return tg.solveSession(ctx, members, NewSolveCache(), false)
	}
	return tg.solveSession(ctx, members, warm, true)
}

// solveSession is solvePairs on a non-nil cache; cached says whether the
// cache is the caller's, to be counted in solver.cache.rebuilds.
func (tg *TileGraph) solveSession(ctx context.Context, members []bool, warm *SolveCache, cached bool) (*pairSolution, error) {
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
	if warm.beforeEval != nil {
		warm.beforeEval(members)
	}
	s := warm.sess
	if s == nil || s.tg != tg {
		s = newSolverSession(tg)
		warm.sess = s
	}
	if err := s.rebuild(tg, members); err != nil {
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
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, pairScratch{})
	}
	invBefore := atomic.LoadInt64(&s.invalidations)

	sol := &pairSolution{pairs: pairs, weights: weights, orig: s.orig, neighbors: s.nbrFn, volts: s.volts}

	solveOne := func(w int, pi int) error {
		sc := &s.scratch[w]
		pr := pairs[pi]
		st0, st1 := s.subTerms[pr[0]], s.subTerms[pr[1]]
		cs, ct := s.compIdx[st0], s.compIdx[st1]
		cn := len(s.compNodes)
		sc.b = growf(sc.b, cn)
		b := sc.b
		for i := range b {
			b[i] = 0
		}
		b[cs] += 1
		b[ct] -= 1
		var x0 []float64
		if wv := warm.pairVolts[pi]; len(wv) == tg.G.N() {
			sc.x0 = growf(sc.x0, cn)
			x0 = sc.x0
			for ci, si := range s.compNodes {
				x0[ci] = wv[s.orig[si]]
			}
		}
		v, attempts, err := s.lap.SolveAttemptsCtxWork(ctx, b, x0, &sc.ws)
		if x0 != nil && len(attempts) > 0 && attempts[0].Err != nil && ctx.Err() == nil {
			// Warm-start stall: the primary rung rejected the warm
			// vector (stale after a component change, or otherwise
			// poisoned). Drop it and re-run the ladder cold at full
			// tolerance rather than accepting a relaxed-rung answer
			// seeded by a bad Krylov space.
			atomic.AddInt64(&s.invalidations, 1)
			warm.pairVolts[pi] = nil
			failed := attempts[0]
			v, attempts, err = s.lap.SolveAttemptsCtxWork(ctx, b, nil, &sc.ws)
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
		for ci, si := range s.compNodes {
			full[s.orig[si]] = v[ci]
		}
		warm.pairVolts[pi] = full
		s.volts[pi] = full
		return nil
	}
	solveErr := runPairSolves(ctx, len(pairs), solveOne)
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
