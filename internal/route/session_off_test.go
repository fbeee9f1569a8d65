package route_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/route"
)

// TestGoldenSessionOff routes the golden corpus, then reruns every rail's
// tile graph with the solver session and the cache's reusable
// node-current buffers thrown away before each evaluation. Both only keep
// memory between evaluations, so the rerun must decide and score exactly
// like the original: same member set, route and pair resistances, solver
// summary, and iteration trace (wall clock aside). The rerun also checks
// that the pipeline never scores the same mask twice in a row.
func TestGoldenSessionOff(t *testing.T) {
	rerun := func(t *testing.T, name string, want *route.Result, cfg route.Config) {
		t.Helper()
		var prev []bool
		evals := 0
		got, err := route.RouteEvals(want.Graph, cfg, true, func(members []bool) {
			if prev != nil && slices.Equal(prev, members) {
				t.Errorf("%s: evaluation %d scores the mask of evaluation %d again", name, evals, evals-1)
			}
			prev = append(prev[:0], members...)
			evals++
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if evals == 0 {
			t.Fatalf("%s: the rerun evaluated no mask", name)
		}
		if !slices.Equal(got.Members, want.Members) {
			t.Errorf("%s: member set differs with the session thrown away", name)
		}
		if got.Resistance != want.Resistance {
			t.Errorf("%s: resistance %x vs %x", name, got.Resistance, want.Resistance)
		}
		if !slices.Equal(got.PairResistance, want.PairResistance) {
			t.Errorf("%s: pair resistances %v vs %v", name, got.PairResistance, want.PairResistance)
		}
		if !reflect.DeepEqual(got.Solve, want.Solve) {
			t.Errorf("%s: solver summary\n  fresh   %+v\n  session %+v", name, got.Solve, want.Solve)
		}
		if a, b := withoutElapsed(got.Trace), withoutElapsed(want.Trace); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: trace\n  fresh   %+v\n  session %+v", name, a, b)
		}
	}
	for _, tc := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"threerail", func() (*cases.CaseStudy, error) { return cases.ThreeRail(cases.Table4()[0]) }},
		{"sixrail", cases.SixRail},
	} {
		t.Run(tc.name, func(t *testing.T) {
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

func withoutElapsed(trace []route.IterRecord) []route.IterRecord {
	out := slices.Clone(trace)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}
