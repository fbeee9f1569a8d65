package route_test

import (
	"context"
	"slices"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/route"
	"sprout/internal/sparse"
)

// TestLoopStampMatchesSortedAssembly routes the golden corpus and the
// two-rail board at Δx = 2, then reruns every rail's
// pipeline and compares each Laplacian the grow/refine/reheat loop
// stamped (sparse.StampLaplacian) with the one sparse.ReassembleLaplacian
// sorts from the same mask: matrix, diagonal and IC(0) factor must match
// bit for bit. The route-pitch conductances of these boards make every
// diagonal sum exact in any order, which is what lets the loop skip the
// sort without moving a route bit.
func TestLoopStampMatchesSortedAssembly(t *testing.T) {
	rerun := func(t *testing.T, name string, want *route.Result, cfg route.Config) {
		t.Helper()
		checked := 0
		got, err := route.RouteAssemblies(want.Graph, cfg, func(loop, sorted *sparse.Laplacian) {
			if err := sparse.DiffLaplacians(loop, sorted); err != nil {
				t.Fatalf("%s: evaluation %d: stamped vs sorted: %v", name, checked, err)
			}
			checked++
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if checked == 0 {
			t.Fatalf("%s: the rerun assembled no Laplacian", name)
		}
		if got.Resistance != want.Resistance || !slices.Equal(got.Members, want.Members) {
			t.Fatalf("%s: the rerun routed differently (R %x vs %x)", name, got.Resistance, want.Resistance)
		}
	}
	for _, tc := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"threerail", func() (*cases.CaseStudy, error) { return cases.ThreeRail(cases.Table4()[0]) }},
		{"sixrail", cases.SixRail},
		{"tworail-dx2", func() (*cases.CaseStudy, error) {
			cs, err := cases.TwoRail()
			if err == nil {
				cs.Config.DX, cs.Config.DY = 2, 2
			}
			return cs, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			opt := sprout.RouteOptions{
				Layer:       cs.RoutingLayer,
				Budgets:     cs.Budgets,
				Config:      cs.Config,
				FailFast:    true,
				SkipExtract: true,
			}
			res, err := sprout.RouteBoard(cs.Board, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, rail := range res.Rails {
				cfg := cs.Config
				if rail.Budget > 0 {
					cfg.AreaMax = rail.Budget
				}
				rerun(t, rail.Name, rail.Route, cfg)
			}
		})
	}
	t.Run("fig8", func(t *testing.T) {
		avail, terms := cases.Fig8Scene()
		cfg := route.Config{
			DX: 4, DY: 4, AreaMax: 4000,
			GrowNodes: 20, RefineNodes: 10, RefineIters: 10, ReheatDilations: 2,
		}
		res, err := route.RouteCtx(context.Background(), avail, terms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rerun(t, "fig8", res, cfg)
	})
}
