package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"sprout/internal/cases"
	"sprout/internal/report"
	"sprout/internal/route"
	"sprout/internal/sparse"
)

// RuntimePoint is one tile-size measurement of the §II-H runtime study.
type RuntimePoint struct {
	TileDX      int64
	Nodes       int
	BuildTime   time.Duration // SPACETOGRAPH (Alg. 1)
	SolveTime   time.Duration // median cold node-current evaluation (Alg. 3)
	FullRoute   time.Duration // complete pipeline
	ResistanceR float64
}

// RuntimeResult is the scaling study plus the fitted solve exponent q of
// paper Eq. 7 (sparse solve cost O(|V|^q), q ∈ [1.5, 3]).
type RuntimeResult struct {
	Points []RuntimePoint
	QFit   float64
	// JacobiIters and IC0Iters compare CG iteration counts under the two
	// preconditioners on the finest-tile Laplacian — the solver choice
	// that keeps SPROUT at the low end of the paper's q band.
	JacobiIters, IC0Iters int
}

// solveRuns is how many cold node-current evaluations are timed per
// pitch, after one untimed warm-up evaluation; their median is the
// pitch's SolveTime. One sample moved the fitted q by about 0.1 from run
// to run.
const solveRuns = 5

// RunRuntime measures SPROUT's stage costs on the two-rail board across
// tile sizes. Smaller tiles quadratically increase |V| (paper Eq. 13), so
// the sweep exposes the solve-time scaling the paper analyzes.
func RunRuntime() (*RuntimeResult, error) {
	ctx := context.Background()
	cs, err := cases.TwoRail()
	if err != nil {
		return nil, err
	}
	b := cs.Board
	net := b.Nets[0]
	avail := b.AvailableSpace(net.ID, cs.RoutingLayer)
	var terms []route.Terminal
	for _, g := range b.GroupsOn(net.ID, cs.RoutingLayer) {
		terms = append(terms, route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current})
	}

	out := &RuntimeResult{}
	for _, dx := range []int64{10, 8, 6, 5, 4, 3} {
		t0 := time.Now()
		tg, err := route.BuildTileGraph(avail, terms, dx, dx)
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)

		all := make([]bool, tg.G.N())
		for i := range all {
			all[i] = true
		}
		// Each evaluation gets a fresh nil cache, so every run is cold.
		// One untimed evaluation first warms the process for this graph
		// size, so the first pitches are not timed colder than the rest.
		m, err := tg.NodeCurrentsCtx(ctx, all, nil)
		if err != nil {
			return nil, err
		}
		solves := make([]time.Duration, solveRuns)
		for i := range solves {
			t1 := time.Now()
			if m, err = tg.NodeCurrentsCtx(ctx, all, nil); err != nil {
				return nil, err
			}
			solves[i] = time.Since(t1)
		}
		slices.Sort(solves)
		solve := solves[solveRuns/2]

		t2 := time.Now()
		if _, err := tg.RouteCtx(ctx, route.Config{DX: dx, DY: dx, AreaMax: cs.Budgets[net.ID]}); err != nil {
			return nil, err
		}
		full := time.Since(t2)

		out.Points = append(out.Points, RuntimePoint{
			TileDX: dx, Nodes: tg.G.N(),
			BuildTime: build, SolveTime: solve, FullRoute: full,
			ResistanceR: m.Resistance,
		})
	}

	// Preconditioner comparison on the finest tile graph.
	tg, err := route.BuildTileGraph(avail, terms, 3, 3)
	if err != nil {
		return nil, err
	}
	rowPtr, to, w := tg.G.CSR()
	lap, err := sparse.ReassembleLaplacian(nil, rowPtr, to, w, tg.Terminals[0])
	if err != nil {
		return nil, err
	}
	mat := lap.Matrix()
	rhs := make([]float64, mat.N)
	rhs[0] = 1
	if _, it, err := sparse.CGCtx(ctx, mat, rhs, nil, sparse.CGOptions{Precond: sparse.Jacobi(mat.Diag())}); err == nil {
		out.JacobiIters = it
	} else {
		return nil, err
	}
	if ic, err := sparse.NewIC0(mat); err == nil {
		if _, it, err := sparse.CGCtx(ctx, mat, rhs, nil, sparse.CGOptions{Precond: ic}); err == nil {
			out.IC0Iters = it
		} else {
			return nil, err
		}
	}

	// Least-squares fit of log(solve) = q·log(nodes) + c.
	var sx, sy, sxx, sxy float64
	n := float64(len(out.Points))
	for _, p := range out.Points {
		x := math.Log(float64(p.Nodes))
		y := math.Log(float64(p.SolveTime.Nanoseconds()))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	out.QFit = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	return out, nil
}

// Runtime runs the study and prints the table plus the fitted exponent.
func Runtime(w io.Writer) (*RuntimeResult, error) {
	section(w, "E8 / §II-H", "runtime scaling with tile size (Eqs. 6-14)")
	res, err := RunRuntime()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("two-rail VDD1 stage timings vs tile size",
		"Δx", "|V|", "SpaceToGraph", "NodeCurrent", "full route", "R (squares)")
	for _, p := range res.Points {
		t.AddRow(p.TileDX, p.Nodes, p.BuildTime.Round(time.Microsecond),
			p.SolveTime.Round(time.Microsecond), p.FullRoute.Round(time.Millisecond), p.ResistanceR)
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nfitted node-current solve exponent q = %.2f (paper Eq. 7: q ∈ [1.5, 3])\n", res.QFit)
	fmt.Fprintf(w, "CG iterations at Δx=3: Jacobi %d vs IC(0) %d — the incomplete-Cholesky\n",
		res.JacobiIters, res.IC0Iters)
	fmt.Fprintln(w, "preconditioner keeps SPROUT at the best-case end of the paper's solver band.")
	return res, nil
}
