package experiments

import (
	"fmt"
	"io"
	"time"

	"sprout"
	"sprout/internal/cases"
	"sprout/internal/report"
)

// ExplorePoint is one board's order-exploration measurement: the
// prefix-tree explorer's wall time and how much routing its shared
// prefixes saved.
type ExplorePoint struct {
	Case      string
	Orders    int
	BestOrder []sprout.NetID
	BestScore float64
	Time      time.Duration
	// Hits/Misses are the explorer's prefix-cache counters: Misses is the
	// number of rail routes actually performed, Hits the number a
	// from-scratch sweep would have repeated.
	Hits, Misses int64
}

// ExploreResult is the net-order exploration study.
type ExploreResult struct {
	Points []ExplorePoint
}

// RunExplore sweeps net routing orders on the two-rail and six-rail
// boards. The six-rail sweep is truncated so
// the experiment stays interactive; the committed benchmarks cover the
// full 24-order sweep.
func RunExplore() (*ExploreResult, error) {
	two, err := cases.TwoRail()
	if err != nil {
		return nil, err
	}
	six, err := cases.SixRail()
	if err != nil {
		return nil, err
	}
	runs := []struct {
		name string
		cs   *cases.CaseStudy
		opt  sprout.RouteOptions
	}{
		{"two-rail", two, sprout.RouteOptions{
			Layer: two.RoutingLayer, Budgets: two.Budgets, Config: two.Config,
		}},
		{"six-rail", six, sprout.RouteOptions{
			Layer: six.RoutingLayer, Budgets: six.Budgets, Config: six.Config,
			ExploreAllOrders: true, ExploreMaxOrders: 6,
		}},
	}
	out := &ExploreResult{}
	for _, r := range runs {
		t0 := time.Now()
		ex, err := sprout.ExploreNetOrders(r.cs.Board, r.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out.Points = append(out.Points, ExplorePoint{
			Case:      r.name,
			Orders:    ex.Stats.Orders,
			BestOrder: ex.BestOrder,
			BestScore: ex.BestScore,
			Time:      time.Since(t0),
			Hits:      ex.Stats.PrefixHits,
			Misses:    ex.Stats.PrefixMisses,
		})
	}
	return out, nil
}

// Explore runs the order-exploration study and prints the table. It is
// not part of All(): exploring every order routes each board many times,
// which would dominate the paper-reproduction run.
func Explore(w io.Writer) (*ExploreResult, error) {
	section(w, "E10 / §II-G", "net-order exploration: prefix-tree memoization vs from-scratch sweep")
	res, err := RunExplore()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("order exploration over the permutation tree",
		"case", "orders", "best order", "score", "time", "rail routes", "from scratch", "saved")
	for _, p := range res.Points {
		scratch := p.Hits + p.Misses
		t.AddRow(p.Case, p.Orders, fmt.Sprint(p.BestOrder), p.BestScore,
			p.Time.Round(time.Millisecond), p.Misses, scratch,
			fmt.Sprintf("%.0f%%", 100*float64(p.Hits)/float64(scratch)))
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nOrders sharing a routed prefix share its snapshot: \"rail routes\" counts the")
	fmt.Fprintln(w, "routes the explorer performed, \"from scratch\" what routing every order alone")
	fmt.Fprintln(w, "would perform.")
	return res, nil
}
