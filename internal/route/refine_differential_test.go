package route_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/route"
)

// sameRemoval runs the erosion guard, with the search state of warm, and
// its oracle on copies of members and fails unless both remove the same
// ids in the same order and leave the same mask. It returns the number of
// ids removed.
func sameRemoval(t testing.TB, name string, tg *route.TileGraph, warm *route.SolveCache, members []bool, cur []float64, k int) int {
	t.Helper()
	got, want := slices.Clone(members), slices.Clone(members)
	gotIDs := route.RemoveLowCurrent(tg, warm, got, cur, k)
	wantIDs := route.RemoveLowCurrentOracle(tg, want, cur, k)
	if !slices.Equal(gotIDs, wantIDs) {
		i := 0
		for ; i < min(len(gotIDs), len(wantIDs)) && gotIDs[i] == wantIDs[i]; i++ {
		}
		t.Fatalf("%s: k=%d removed %d ids, oracle %d; they part at removal %d: %v vs %v",
			name, k, len(gotIDs), len(wantIDs), i, gotIDs[i:min(i+3, len(gotIDs))], wantIDs[i:min(i+3, len(wantIDs))])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: k=%d leaves a mask that differs from the oracle's", name, k)
	}
	return len(gotIDs)
}

// randomRemovalCase draws a member mask, node currents and a removal
// count for tg. Masks are thin seeds (many bridges), dilated seeds, the
// whole graph with holes, or random scatters (mostly disconnected);
// currents are often quantized so that ties reach the id tie-break.
func randomRemovalCase(r *rand.Rand, tg *route.TileGraph, mode uint8) ([]bool, []float64, int) {
	n := tg.G.N()
	members := make([]bool, n)
	switch mode % 4 {
	case 0, 3:
		seed, err := tg.Seed()
		if err != nil {
			break
		}
		copy(members, seed)
		if mode%4 == 0 {
			for d := r.Intn(3); d > 0; d-- {
				tg.Dilate(members)
			}
		} else {
			for i := r.Intn(1 + n/4); i > 0; i-- {
				members[r.Intn(n)] = true // islands and stubs
			}
		}
	case 1:
		drop := r.Float64() * 0.3
		for i := range members {
			members[i] = r.Float64() >= drop
		}
	case 2:
		keep := 0.2 + 0.7*r.Float64()
		for i := range members {
			members[i] = r.Float64() < keep
		}
	}
	if r.Intn(8) == 0 {
		members[tg.Terminals[r.Intn(len(tg.Terminals))]] = r.Intn(2) == 0
	}
	cur := make([]float64, n)
	quantized := r.Intn(2) == 0
	for i := range cur {
		switch {
		case quantized:
			cur[i] = float64(r.Intn(4)) / 4
		case r.Intn(20) == 0:
			cur[i] = math.Copysign(0, -1) // ties +0 under both comparators
		default:
			cur[i] = r.ExpFloat64()
		}
	}
	k := r.Intn(n + 2)
	if r.Intn(4) == 0 {
		k = r.Intn(4)
	}
	return members, cur, k
}

// TestRemoveLowCurrentMatchesOracle checks the erosion guard against the
// original per-candidate full search on the routed rails of the golden
// boards, with their real node currents, and on seeded random tile
// graphs and masks. Each subtest reuses one search state across graphs of
// different sizes, as a long-lived cache would.
func TestRemoveLowCurrentMatchesOracle(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		warm := route.NewSolveCache()
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
			for _, rail := range res.Rails {
				tg, members := rail.Route.Graph, slices.Clone(rail.Route.Members)
				name := tc.name + "/" + rail.Name
				for _, grow := range []bool{false, true} {
					if grow {
						tg.Dilate(members)
					}
					m, err := tg.NodeCurrents(members, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{1, 7, 40, tg.G.N()} {
						sameRemoval(t, fmt.Sprintf("%s dilated=%v", name, grow), tg, warm, members, m.NodeCurrent, k)
					}
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		warm := route.NewSolveCache()
		removed := 0
		for seed := int64(0); seed < 300; seed++ {
			r := rand.New(rand.NewSource(seed))
			avail, terms, dx, dy := randomTileCase(r)
			tg, err := route.BuildTileGraph(avail, terms, dx, dy)
			if err != nil {
				continue
			}
			members, cur, k := randomRemovalCase(r, tg, uint8(seed))
			removed += sameRemoval(t, fmt.Sprintf("seed %d", seed), tg, warm, members, cur, k)
		}
		if removed == 0 {
			t.Fatal("no random case removed anything; the comparison is vacuous")
		}
	})
}

// FuzzRemoveLowCurrent checks the erosion guard against its oracle on
// fuzzer-chosen random tile graphs, masks, currents and removal counts.
// Run the seeds as normal tests, or explore with
// `go test -fuzz=FuzzRemoveLowCurrent`.
func FuzzRemoveLowCurrent(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Add(int64(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		avail, terms, dx, dy := randomTileCase(r)
		tg, err := route.BuildTileGraph(avail, terms, dx, dy)
		if err != nil {
			return
		}
		members, cur, k := randomRemovalCase(r, tg, mode)
		sameRemoval(t, fmt.Sprintf("seed %d mode %d", seed, mode), tg, nil, members, cur, k)
	})
}

// TestRemoveLowCurrentAllocs checks that the erosion guard does not
// allocate per candidate: on a routed six-rail rail, trying every member
// costs no more allocations than stopping after the first removal.
func TestRemoveLowCurrentAllocs(t *testing.T) {
	cs, err := cases.SixRail()
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
	rail := res.Rails[0].Route
	for _, rr := range res.Rails[1:] {
		if route.MemberCount(rr.Route.Members) > route.MemberCount(rail.Members) {
			rail = rr.Route
		}
	}
	tg, base := rail.Graph, rail.Members
	m, err := tg.NodeCurrents(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := slices.Clone(base)
	warm := route.NewSolveCache()
	allocs := func(k int) (float64, int) {
		removed := 0
		a := testing.AllocsPerRun(20, func() {
			copy(members, base)
			removed = len(route.RemoveLowCurrent(tg, warm, members, m.NodeCurrent, k))
		})
		return a, removed
	}
	one, n1 := allocs(1)
	all, nAll := allocs(tg.G.N())
	if n1 != 1 || nAll <= n1 {
		t.Fatalf("removed %d with k=1 and %d with k=n; the rail does not exercise the guard", n1, nAll)
	}
	if all > one {
		t.Fatalf("trying all %d members allocates %.0f times, one removal %.0f: the guard allocates per candidate",
			route.MemberCount(base), all, one)
	}
}
