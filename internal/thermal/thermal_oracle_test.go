package thermal_test

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/sparse"
	"sprout/internal/thermal"
)

// simulateBuilderCG is Simulate as it was before the heat network became a
// grounded Laplacian with an ambient node: the lateral conductances and
// every tile's sink are stamped as coordinate entries, summed after a
// (row, col) sort, and solved by a bare CG preconditioned by IC(0), or by
// Jacobi when the factorization breaks down. opt must be complete: the
// oracle applies no defaults.
func simulateBuilderCG(op *extract.OperatingPoint, sheetOhms float64, opt thermal.Options) ([]float64, geom.Point, error) {
	tg := op.TG
	n := tg.G.N()
	kSheet := opt.CopperWPerMK * opt.CopperUM * 1e-6
	unitM := opt.UnitMM * 1e-3
	areaScale := unitM * unitM

	type entry struct {
		row, col int
		val      float64
	}
	var es []entry
	for u := 0; u < n; u++ {
		to, w := tg.G.Adj(u)
		for k, v := range to {
			if g := kSheet * w[k]; u < v && g > 0 {
				es = append(es, entry{u, u, g}, entry{v, v, g}, entry{u, v, -g}, entry{v, u, -g})
			}
		}
	}
	for i := 0; i < n; i++ {
		es = append(es, entry{i, i, opt.BoardHTC * float64(tg.Area[i]) * areaScale})
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.col, b.col))
	})
	mat := &sparse.CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < len(es); {
		j, v := i, 0.0
		for ; j < len(es) && es[j].row == es[i].row && es[j].col == es[i].col; j++ {
			v += es[j].val
		}
		if v != 0 {
			mat.Col = append(mat.Col, es[i].col)
			mat.Val = append(mat.Val, v)
			mat.RowPtr[es[i].row+1]++
		}
		i = j
	}
	for r := 0; r < n; r++ {
		mat.RowPtr[r+1] += mat.RowPtr[r]
	}

	var cgOpt sparse.CGOptions
	if ic, err := sparse.NewIC0(mat); err == nil {
		cgOpt.Precond = ic
	} else {
		cgOpt.Precond = sparse.Jacobi(mat.Diag())
	}
	temp, _, err := sparse.CGCtx(context.Background(), mat, op.NodeJouleHeat(sheetOhms), nil, cgOpt)
	if err != nil {
		return nil, geom.Point{}, err
	}
	var maxRise float64
	var hot geom.Point
	for i, t := range temp {
		if t > maxRise {
			maxRise = t
			hot = tg.Bounds(i).Center()
		}
	}
	return temp, hot, nil
}

// TestSimulateMatchesBuilderCGOracle requires the thermal map that
// sprout.RailDC computes for every rail of the two-rail board, Table IV
// row 0 of the three-rail board and the six-rail board to agree with the
// coordinate-builder oracle within 1e-12 relative per node, with the same
// hotspot. The two sum each diagonal entry in a different order, so the
// maps differ in the last bits only.
func TestSimulateMatchesBuilderCGOracle(t *testing.T) {
	rails, worst := 0, 0.0
	for _, tc := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"threerail", func() (*cases.CaseStudy, error) { return cases.ThreeRail(cases.Table4()[0]) }},
		{"sixrail", cases.SixRail},
	} {
		cs, err := tc.load()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sprout.RouteBoard(cs.Board, sprout.RouteOptions{
			Layer:       cs.RoutingLayer,
			Budgets:     cs.Budgets,
			Config:      cs.Config,
			FailFast:    true,
			SkipExtract: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		layer := cs.Board.Stackup.Layer(cs.RoutingLayer)
		opt := thermal.Options{CopperWPerMK: 400, CopperUM: layer.CopperUM, BoardHTC: 800, UnitMM: 0.1}
		for _, rail := range res.Rails {
			name := tc.name + "/" + rail.Name
			dc, err := sprout.RailDC(cs.Board, cs.RoutingLayer, rail, cs.VSupply)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, hot, err := simulateBuilderCG(dc.Operating, layer.SheetResistance(), opt)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			got := dc.Thermal
			if len(got.RiseC) != len(want) {
				t.Fatalf("%s: %d nodes, oracle %d", name, len(got.RiseC), len(want))
			}
			for i := range want {
				rel := math.Abs(got.RiseC[i]-want[i]) / math.Abs(want[i])
				if rel > 1e-12 {
					t.Fatalf("%s: node %d rise %v, oracle %v (relative %.3g)", name, i, got.RiseC[i], want[i], rel)
				}
				worst = max(worst, rel)
			}
			if got.Hotspot != hot {
				t.Fatalf("%s: hotspot %v, oracle %v", name, got.Hotspot, hot)
			}
			rails++
		}
	}
	if rails != 2+3+6 {
		t.Fatalf("checked %d rails, want 11", rails)
	}
	t.Logf("largest relative difference from the oracle: %.3g", worst)
}
