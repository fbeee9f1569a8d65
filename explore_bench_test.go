package sprout_test

// Explorer benchmarks: the same 24-order sweep of the six-rail board
// through the sequential reference oracle and the prefix-tree explorer.
// On a single-core runner the speedup comes almost entirely from
// memoization — the permutation tree routes each shared prefix once.
// Custom metrics report the explorer's cache traffic: rail-routes/op is
// the number of rail routes actually performed, prefix-hits/op the number
// a sequential sweep would have repeated.
//
// Committed results live in BENCH_pr5.json; regenerate with
//
//	go test -run='^$' -bench=BenchmarkExplore -benchtime=1x -count=3 .

import (
	"context"
	"testing"

	"sprout"
	"sprout/internal/cases"
)

// benchExploreOptions is the full factorial sweep of the first four
// six-rail nets (lexicographic truncation at 24 orders = 4! complete
// subtrees), the same workload pinned in BENCH_pr5.json.
func benchExploreOptions(cs *cases.CaseStudy) sprout.RouteOptions {
	return sprout.RouteOptions{
		Layer:            cs.RoutingLayer,
		Budgets:          cs.Budgets,
		Config:           cs.Config,
		ExploreAllOrders: true,
		ExploreMaxOrders: 24,
	}
}

// benchExplore times explore on the six-rail sweep and returns the last
// run's stats.
func benchExplore(b *testing.B, explore func(*sprout.Board, sprout.RouteOptions) (*sprout.OrderExploration, error)) sprout.ExploreStats {
	b.Helper()
	cs, err := cases.SixRail()
	if err != nil {
		b.Fatal(err)
	}
	o := benchExploreOptions(cs)
	b.ReportAllocs()
	b.ResetTimer()
	var stats sprout.ExploreStats
	for i := 0; i < b.N; i++ {
		ex, err := explore(cs.Board, o)
		if err != nil {
			b.Fatal(err)
		}
		if ex.Best == nil {
			b.Fatal("no winner")
		}
		stats = ex.Stats
	}
	b.ReportMetric(float64(stats.Orders), "orders/op")
	return stats
}

func BenchmarkExploreSequential(b *testing.B) {
	benchExplore(b, func(bd *sprout.Board, o sprout.RouteOptions) (*sprout.OrderExploration, error) {
		return sprout.ExploreSequential(context.Background(), bd, o)
	})
}

func BenchmarkExploreParallel(b *testing.B) {
	stats := benchExplore(b, sprout.ExploreNetOrders)
	b.ReportMetric(float64(stats.PrefixHits), "prefix-hits/op")
	b.ReportMetric(float64(stats.PrefixMisses), "rail-routes/op")
}
