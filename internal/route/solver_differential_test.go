package route

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sprout/internal/geom"
	"sprout/internal/graph"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// This file is the differential gate on the solver session (DESIGN.md
// §5g): random member-toggle sequences run through the session and the
// from-scratch oracle below side by side. While no warm-start invalidation
// has fired the two paths must agree bit for bit — voltages, metrics, and
// ladder telemetry — because member-selection decisions in grow/refine
// depend on exact float comparisons. After an
// invalidation the paths legitimately diverge (the session solved cold at
// full tolerance where the oracle kept a stale warm vector), so agreement
// drops to sparse.ApproxEqualTol.

// solvePairsScratch is the from-scratch nodal analysis, kept as the test
// oracle: every structure is rebuilt for the given mask through
// inducedMembers, components and a graph.FromEdges layout of the terminal
// component's edge list, sharing no code with the session's rebuild. Only the warm-start vectors of warm
// (which may be nil) carry over between calls.
func (tg *TileGraph) solvePairsScratch(ctx context.Context, members []bool, warm *SolveCache) (*pairSolution, error) {
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
	sub, orig := inducedMembers(tg.G, members)
	subIdx := make(map[int]int, len(orig))
	for si, id := range orig {
		subIdx[id] = si
	}
	subTerms := make([]int, len(tg.Terminals))
	for i, t := range tg.Terminals {
		subTerms[i] = subIdx[t]
	}
	label := components(sub)
	tcomp := label[subTerms[0]]
	for _, st := range subTerms {
		if label[st] != tcomp {
			return nil, fmt.Errorf("route: terminals disconnected within subgraph")
		}
	}

	// The subgraph may contain satellite components without terminals
	// (e.g. after removals); nodes outside the terminal component make the
	// grounded Laplacian singular. Restrict the solve to the terminal
	// component.
	compNodes := make([]int, 0, sub.N())
	compIdx := make([]int, sub.N())
	for i := range compIdx {
		compIdx[i] = -1
	}
	for i := 0; i < sub.N(); i++ {
		if label[i] == tcomp {
			compIdx[i] = len(compNodes)
			compNodes = append(compNodes, i)
		}
	}
	var cedges []graph.Edge
	for _, e := range rowEdges(sub) {
		if compIdx[e.U] >= 0 && compIdx[e.V] >= 0 {
			cedges = append(cedges, graph.Edge{U: compIdx[e.U], V: compIdx[e.V], Weight: e.Weight})
		}
	}
	cg, err := graph.FromEdges(len(compNodes), cedges)
	if err != nil {
		return nil, fmt.Errorf("route: laplacian: %w", err)
	}
	rowPtr, to, w := cg.CSR()
	lap, err := sparse.ReassembleLaplacian(nil, rowPtr, to, w, compIdx[subTerms[0]])
	if err != nil {
		return nil, fmt.Errorf("route: laplacian: %w", err)
	}

	pairs, weights := tg.pairList()
	if warm != nil && len(warm.pairVolts) != len(pairs) {
		warm.pairVolts = make([][]float64, len(pairs))
	}
	// The component's CSR adjacency for the metric, in the subgraph's
	// row order.
	sol := &pairSolution{pairs: pairs, weights: weights, rowPtr: []int{0}}
	for _, si := range compNodes {
		sol.nodes = append(sol.nodes, orig[si])
		to, w := sub.Adj(si)
		for k, nj := range to {
			sol.nbr = append(sol.nbr, compIdx[nj])
			sol.nw = append(sol.nw, w[k])
		}
		sol.rowPtr = append(sol.rowPtr, len(sol.nbr))
	}
	sol.volts = make([][]float64, len(pairs))

	// Each worker deposits its ladder trace in its own slot; the traces
	// are folded after the pool drains, in pair order.
	atts := make([][]sparse.RungAttempt, len(pairs))
	solveOne := func(_ int, pi int) error {
		pr := pairs[pi]
		s, t := subTerms[pr[0]], subTerms[pr[1]]
		cs, ct := compIdx[s], compIdx[t]
		b := make([]float64, len(compNodes))
		b[cs] += 1
		b[ct] -= 1
		var x0 []float64
		if warm != nil && warm.pairVolts[pi] != nil {
			x0 = make([]float64, len(compNodes))
			for ci, si := range compNodes {
				x0[ci] = warm.pairVolts[pi][orig[si]]
			}
		}
		v, attempts, err := lap.SolveCtx(ctx, b, x0, nil)
		atts[pi] = attempts
		if err != nil {
			return fmt.Errorf("route: pair %d solve: %w", pi, err)
		}
		full := make([]float64, tg.G.N())
		for ci, si := range compNodes {
			full[orig[si]] = v[ci]
		}
		if warm != nil {
			warm.pairVolts[pi] = full
		}
		sol.volts[pi] = full
		return nil
	}
	solveErr := runPairSolves(ctx, len(pairs), runtime.GOMAXPROCS(0), solveOne)
	sol.stats = foldSolveStats(ctx, atts, lap, solveStart)
	if warm != nil {
		warm.stats.Merge(sol.stats)
	}
	if solveErr != nil {
		return nil, solveErr
	}
	return sol, nil
}

// inducedMembers returns the subgraph induced by the mask's set nodes
// (paper Alg. 4 line 13, Γ_n[V_n^s]) together with the mapping from new
// node index to original node index. Each edge is listed once, from its
// smaller endpoint, in row order.
func inducedMembers(g *graph.Graph, members []bool) (*graph.Graph, []int) {
	keep := make([]int, g.N())
	var orig []int
	for id, in := range members {
		keep[id] = -1
		if in {
			keep[id] = len(orig)
			orig = append(orig, id)
		}
	}
	var edges []graph.Edge
	for newU, u := range orig {
		to, w := g.Adj(u)
		for k, v := range to {
			if v > u && keep[v] != -1 {
				edges = append(edges, graph.Edge{U: newU, V: keep[v], Weight: w[k]})
			}
		}
	}
	// The edges come from a valid graph, so FromEdges cannot reject them.
	sub, _ := graph.FromEdges(len(orig), edges)
	return sub, orig
}

// components labels each node of g with its connected component, numbered
// from 0 in order of each component's smallest node.
func components(g *graph.Graph) []int {
	label := make([]int, g.N())
	for i := range label {
		label[i] = -1
	}
	next := 0
	var queue []int
	for s := range label {
		if label[s] != -1 {
			continue
		}
		label[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			to, _ := g.Adj(u)
			for _, v := range to {
				if label[v] == -1 {
					label[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return label
}

// nodeCurrentsScratch is NodeCurrents over the oracle.
func (tg *TileGraph) nodeCurrentsScratch(members []bool, warm *SolveCache) (*Metrics, error) {
	sol, err := tg.solvePairsScratch(context.Background(), members, warm)
	if err != nil {
		return nil, err
	}
	return tg.metrics(sol, make([]float64, tg.G.N())), nil
}

// toggleStep is one step of a differential scenario: the non-terminal
// nodes whose membership flips before evaluating. An empty step repeats
// the previous mask: the session rebuilds for it like for any other mask
// and must still match the oracle bit for bit.
type toggleStep []int

// diffHarness drives one board through a toggle sequence on both paths.
type diffHarness struct {
	tg      *TileGraph
	members []bool
	inc     *SolveCache // session path
	scr     *SolveCache // warm-start vectors of the from-scratch oracle
	// diverged is set once only approximate agreement holds: after an
	// invalidation ran, when the paths carry different warm vectors, or
	// from the start on a graph off the ascending-adjacency invariant.
	diverged bool
}

func newDiffHarness(t *testing.T, tg *TileGraph, members []bool) *diffHarness {
	t.Helper()
	return &diffHarness{
		tg:      tg,
		members: append([]bool(nil), members...),
		inc:     NewSolveCache(),
		scr:     NewSolveCache(),
	}
}

func sameStats(a, b sparse.SolveStats) bool {
	if a.Solves != b.Solves || a.Iterations != b.Iterations ||
		a.Escalations != b.Escalations || a.Failures != b.Failures ||
		a.WorstResidual != b.WorstResidual || len(a.Rungs) != len(b.Rungs) {
		return false
	}
	for k, v := range a.Rungs {
		if b.Rungs[k] != v {
			return false
		}
	}
	return true
}

// step applies one toggle and evaluates both paths. It returns a non-nil
// error describing the first disagreement; an agreed-on evaluation failure
// (e.g. disconnected terminals) reverts the toggle and is not a mismatch.
func (h *diffHarness) step(st toggleStep) error {
	for _, id := range st {
		h.members[id] = !h.members[id]
	}
	invBefore := int64(0)
	if h.inc.sess != nil {
		invBefore = h.inc.sess.invalidations
	}
	mi, erri := h.tg.NodeCurrentsCtx(context.Background(), h.members, h.inc)
	ms, errs := h.tg.nodeCurrentsScratch(h.members, h.scr)
	if (erri == nil) != (errs == nil) {
		return fmt.Errorf("error disagreement: incremental %v, scratch %v", erri, errs)
	}
	if erri != nil {
		if erri.Error() != errs.Error() {
			return fmt.Errorf("error text disagreement: %q vs %q", erri, errs)
		}
		for _, id := range st {
			h.members[id] = !h.members[id] // revert: keep the run alive
		}
		return nil
	}
	if h.inc.sess != nil && h.inc.sess.invalidations != invBefore {
		h.diverged = true
	}
	exact := !h.diverged
	cmp := func(what string, a, b float64) error {
		if exact {
			if a != b {
				return fmt.Errorf("%s: incremental %x vs scratch %x (bit mismatch)", what, a, b)
			}
			return nil
		}
		if !sparse.ApproxEqualTol(a, b, 1e-6) {
			return fmt.Errorf("%s: incremental %g vs scratch %g", what, a, b)
		}
		return nil
	}
	if err := cmp("Resistance", mi.Resistance, ms.Resistance); err != nil {
		return err
	}
	if len(mi.PairResistance) != len(ms.PairResistance) {
		return fmt.Errorf("pair count %d vs %d", len(mi.PairResistance), len(ms.PairResistance))
	}
	for i := range mi.PairResistance {
		if err := cmp(fmt.Sprintf("PairResistance[%d]", i), mi.PairResistance[i], ms.PairResistance[i]); err != nil {
			return err
		}
	}
	for i := range mi.NodeCurrent {
		if err := cmp(fmt.Sprintf("NodeCurrent[%d]", i), mi.NodeCurrent[i], ms.NodeCurrent[i]); err != nil {
			return err
		}
	}
	if exact && !sameStats(mi.Solve, ms.Solve) {
		return fmt.Errorf("solver stats disagree: incremental %+v vs scratch %+v", mi.Solve, ms.Solve)
	}
	return nil
}

// runToggleSeq replays a full scenario from a fresh pair of caches and
// returns the index of the first failing step with its error.
func runToggleSeq(t *testing.T, tg *TileGraph, seedMask []bool, seq []toggleStep) (int, error) {
	t.Helper()
	h := newDiffHarness(t, tg, seedMask)
	for i, st := range seq {
		if err := h.step(st); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// shrinkToggleSeq greedily drops steps while the scenario still fails,
// producing a minimal reproduction for the failure report.
func shrinkToggleSeq(t *testing.T, tg *TileGraph, seedMask []bool, seq []toggleStep) []toggleStep {
	t.Helper()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(seq); i++ {
			cand := append(append([]toggleStep(nil), seq[:i]...), seq[i+1:]...)
			if _, err := runToggleSeq(t, tg, seedMask, cand); err != nil {
				seq = cand
				changed = true
				break
			}
		}
	}
	return seq
}

// nonTerminalNodes lists toggleable node ids.
func nonTerminalNodes(tg *TileGraph) []int {
	isTerm := make(map[int]bool, len(tg.Terminals))
	for _, t := range tg.Terminals {
		isTerm[t] = true
	}
	var out []int
	for id := 0; id < tg.G.N(); id++ {
		if !isTerm[id] {
			out = append(out, id)
		}
	}
	return out
}

// TestDifferentialIncrementalVsScratch is the property gate: seeded random
// toggle sequences — grow-like additions, refine-like swaps, repeated
// masks — agree between the session and the from-scratch oracle. Failures are shrunk to a minimal step sequence before reporting.
func TestDifferentialIncrementalVsScratch(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	seedMask, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	candidates := nonTerminalNodes(tg)
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			seq := make([]toggleStep, 0, 40)
			for i := 0; i < 40; i++ {
				if rng.Intn(4) == 0 {
					seq = append(seq, toggleStep{}) // repeated mask: full rebuild
					continue
				}
				st := make(toggleStep, 0, 3)
				for k := 0; k <= rng.Intn(3); k++ {
					st = append(st, candidates[rng.Intn(len(candidates))])
				}
				seq = append(seq, st)
			}
			if i, err := runToggleSeq(t, tg, seedMask, seq); err != nil {
				min := shrinkToggleSeq(t, tg, seedMask, seq)
				t.Fatalf("differential mismatch at step %d: %v\nminimal reproduction (%d steps): %v",
					i, err, len(min), min)
			}
		})
	}
}

// TestUnsortedAdjacencyFailsNamedRow checks what a tile graph built by
// hand off the ascending-row invariant of TileGraph.G gets from the loop:
// not a silently re-sorted system but sparse.StampLaplacian's error naming
// the first row whose columns do not ascend. It reinserts the differential
// board's edges in a shuffled order.
func TestUnsortedAdjacencyFailsNamedRow(t *testing.T) {
	avail, terms := obstacleSpace(t)
	built, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges := rowEdges(built.G)
	rand.New(rand.NewSource(7)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i, e := range edges {
		edges[i] = graph.Edge{U: e.V, V: e.U, Weight: e.Weight}
	}
	g, err := graph.FromEdges(built.G.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	tg := *built
	tg.G = g
	seedMask, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	members := make([]bool, g.N())
	for i := range members {
		members[i] = true
	}
	for _, mask := range [][]bool{seedMask, members} {
		_, err := tg.NodeCurrentsCtx(context.Background(), mask, nil)
		if err == nil || !strings.Contains(err.Error(), "route: laplacian: sparse: row ") ||
			!strings.Contains(err.Error(), "columns must strictly ascend") {
			t.Fatalf("unsorted rows: got error %v, want the stamp's named row error", err)
		}
	}
}

// handTileGraph builds a tile graph from hand-listed edges. It lists them
// sorted by (U, V) with U < V, as BuildTileGraph lists its own, so every
// row ascends (TileGraph.G). Each terminal draws unit current.
func handTileGraph(t *testing.T, n int, edges []graph.Edge, terms []int) *TileGraph {
	t.Helper()
	sorted := make([]graph.Edge, len(edges))
	for i, e := range edges {
		sorted[i] = graph.Edge{U: min(e.U, e.V), V: max(e.U, e.V), Weight: e.Weight}
	}
	slices.SortFunc(sorted, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	g, err := graph.FromEdges(n, sorted)
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]float64, len(terms))
	for i := range cur {
		cur[i] = 1
	}
	return &TileGraph{G: g, Terminals: terms, TermCurrent: cur}
}

// weakBridgeTileGraph hand-builds the near-singular board of sparse's
// TestWarmStartNearSingularLaplacian as a tile graph: two 4x4 unit grids
// joined by a 1e-9 bridge, terminals at the far corners. The grounded
// Laplacian's condition number is ~1e9 — the regime where a stale warm
// vector stalls the primary rung instead of converging.
func weakBridgeTileGraph(t *testing.T) *TileGraph {
	t.Helper()
	w, h := 4, 4
	n := 2 * w * h
	var edges []graph.Edge
	block := func(off int) {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				id := off + y*w + x
				if x+1 < w {
					edges = append(edges, graph.Edge{U: id, V: id + 1, Weight: 1})
				}
				if y+1 < h {
					edges = append(edges, graph.Edge{U: id, V: id + w, Weight: 1})
				}
			}
		}
	}
	block(0)
	block(w * h)
	edges = append(edges, graph.Edge{U: w*h - 1, V: w * h, Weight: 1e-9})
	return handTileGraph(t, n, edges, []int{0, n - 1})
}

// TestStaleWarmVectorTriggersColdFallback is the regression gate on the
// stale-warm-start fix: a poisoned warm vector on the near-singular board
// stalls the primary rung; the session must detect the stall, invalidate
// the pair's warm vector (solver.cache.invalidations), and deliver the
// full-tolerance cold answer bit-identically — where the from-scratch
// oracle, which has no stall detection, settles for the relaxed rung's
// degraded solution seeded by the stale Krylov space.
func TestStaleWarmVectorTriggersColdFallback(t *testing.T) {
	tg := weakBridgeTileGraph(t)
	members := make([]bool, tg.G.N())
	for i := range members {
		members[i] = true
	}
	// The cold oracle: no warm cache at all.
	oracle, err := tg.NodeCurrentsCtx(context.Background(), members, nil)
	if err != nil {
		t.Fatal(err)
	}
	poison := func(warm *SolveCache) {
		t.Helper()
		if _, err := tg.NodeCurrentsCtx(context.Background(), members, warm); err != nil {
			t.Fatal(err)
		}
		if len(warm.pairVolts) != 1 || warm.pairVolts[0] == nil {
			t.Fatalf("expected one cached pair vector, got %v", warm.pairVolts)
		}
		// A catastrophic stale vector: potentials at the float ceiling,
		// alternating sign. The first matvec overflows, the residual
		// goes NaN, and CG burns its entire budget without converging —
		// the stall mode a vector scaled by the old 1e9 bridge exhibits
		// once the bridge is gone from the system.
		for i := range warm.pairVolts[0] {
			v := 1e308
			if i%2 == 1 {
				v = -1e308
			}
			warm.pairVolts[0][i] = v
		}
	}

	// Oracle path: the stall escalates off the primary rung and the
	// relaxed rung's answer is accepted.
	legacy := NewSolveCache()
	poison(legacy)
	mLegacy, err := tg.nodeCurrentsScratch(members, legacy)
	if err != nil {
		t.Fatalf("legacy path: %v", err)
	}
	if mLegacy.Solve.Escalations == 0 {
		t.Fatalf("poisoned warm start did not stall the primary rung (stats %+v); the scenario lost its teeth", mLegacy.Solve)
	}

	// Session path: same poison, but the stall is detected, the warm
	// vector dropped, and the ladder re-run cold at full tolerance.
	sess := NewSolveCache()
	poison(sess)
	mSess, err := tg.NodeCurrentsCtx(context.Background(), members, sess)
	if err != nil {
		t.Fatalf("session path: %v", err)
	}
	if got := sess.sess.invalidations; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if mSess.Solve.Rungs[sparse.RungCG] != 1 {
		t.Fatalf("cold fallback must win on the primary rung at full tolerance, stats %+v", mSess.Solve)
	}
	for i := range oracle.NodeCurrent {
		if mSess.NodeCurrent[i] != oracle.NodeCurrent[i] {
			t.Fatalf("NodeCurrent[%d]: session %x vs cold oracle %x (bit mismatch)", i, mSess.NodeCurrent[i], oracle.NodeCurrent[i])
		}
	}
	if mSess.Resistance != oracle.Resistance {
		t.Fatalf("Resistance: session %x vs cold oracle %x", mSess.Resistance, oracle.Resistance)
	}
	// And the fix is an improvement, not just a difference: the session's
	// answer honors the full tolerance while the legacy answer was only
	// relaxed-tolerance accurate.
	if mSess.Solve.WorstResidual > 1e-10 {
		t.Fatalf("session residual %g exceeds the full tolerance", mSess.Solve.WorstResidual)
	}
	if !math.IsNaN(mLegacy.Resistance) && mLegacy.Solve.WorstResidual <= mSess.Solve.WorstResidual {
		t.Logf("note: legacy residual %g vs session %g", mLegacy.Solve.WorstResidual, mSess.Solve.WorstResidual)
	}
}

// FuzzIncrementalNodeCurrents fuzzes the toggle stream: bytes drive
// membership flips on a fixed board and every evaluation must agree with
// the from-scratch oracle (bit-exactly until an invalidation fires).
func FuzzIncrementalNodeCurrents(f *testing.F) {
	f.Add(uint64(1), []byte{3, 7, 11, 3, 19})
	f.Add(uint64(2), []byte{0, 0, 0, 0})
	f.Add(uint64(42), []byte{5, 29, 5, 29, 13, 13, 2})
	avail := geom.RegionFromRect(geom.R(0, 0, 100, 60)).
		Subtract(geom.RegionFromRect(geom.R(40, 20, 60, 40)))
	terms := []Terminal{
		{Name: "PMIC", Shape: geom.RegionFromRect(geom.R(0, 25, 5, 35)), Current: 4},
		{Name: "BGA1", Shape: geom.RegionFromRect(geom.R(95, 5, 100, 15)), Current: 2},
		{Name: "BGA2", Shape: geom.RegionFromRect(geom.R(95, 45, 100, 55)), Current: 2},
	}
	tg, err := BuildTileGraph(avail, terms, 10, 10)
	if err != nil {
		f.Fatal(err)
	}
	seedMask, err := tg.Seed()
	if err != nil {
		f.Fatal(err)
	}
	candidates := nonTerminalNodes(tg)
	f.Fuzz(func(t *testing.T, seed uint64, toggles []byte) {
		if len(toggles) > 64 {
			toggles = toggles[:64]
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		h := newDiffHarness(t, tg, seedMask)
		for i, b := range toggles {
			var st toggleStep
			if b%4 != 0 {
				// Offset by the seeded stream so equal bytes still
				// explore different nodes across seeds.
				st = toggleStep{candidates[(int(b)+rng.Intn(len(candidates)))%len(candidates)]}
			}
			if err := h.step(st); err != nil {
				t.Fatalf("step %d (byte %d): %v", i, b, err)
			}
		}
	})
}

// rowEdges lists every edge of g once, from its smaller endpoint's row, in
// row order: sorted by (U, V) on a graph whose rows ascend.
func rowEdges(g *graph.Graph) []graph.Edge {
	edges := make([]graph.Edge, 0, g.M())
	for u := 0; u < g.N(); u++ {
		to, w := g.Adj(u)
		for k, v := range to {
			if u < v {
				edges = append(edges, graph.Edge{U: u, V: v, Weight: w[k]})
			}
		}
	}
	return edges
}
