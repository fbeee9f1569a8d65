package sprout_test

import (
	"context"
	"errors"
	"testing"

	"sprout"
	"sprout/internal/faultinject"
	"sprout/internal/obs"
)

// tracedTwoRail routes the healthy two-rail board with a tracer attached
// and reheating enabled, so every paper stage runs.
func tracedTwoRail(t *testing.T) (*sprout.BoardResult, *obs.Tracer) {
	t.Helper()
	b, ids := twoRailBoard(t)
	tr := obs.New()
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := sprout.RouteBoardCtx(ctx, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
		Config:  sprout.RouteConfig{DX: 5, DY: 5, ReheatDilations: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

func TestTracedRouteBoardEmitsStageSpansPerRail(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	_, tr := tracedTwoRail(t)

	spansByTrack := map[string]map[string]int{}
	for _, r := range tr.SpanRecords() {
		if spansByTrack[r.Track] == nil {
			spansByTrack[r.Track] = map[string]int{}
		}
		spansByTrack[r.Track][r.Name]++
	}
	if spansByTrack[""]["RouteBoard"] != 1 {
		t.Fatalf("main track = %v, want one RouteBoard span", spansByTrack[""])
	}
	stages := []string{"Rail", "SpaceToGraph", "Seed", "Grow", "Refine", "Reheat", "BackConvert", "Extract"}
	for _, rail := range []string{"rail:VDD", "rail:VIO"} {
		got := spansByTrack[rail]
		for _, stage := range stages {
			if got[stage] != 1 {
				t.Fatalf("track %s: span %s appeared %d times, want 1 (all: %v)",
					rail, stage, got[stage], got)
			}
		}
	}
	// The per-iteration events land on the rail tracks too.
	growIters := map[string]int{}
	for _, e := range tr.EventRecords() {
		if e.Name == "iter.grow" {
			growIters[e.Track]++
		}
	}
	for _, rail := range []string{"rail:VDD", "rail:VIO"} {
		if growIters[rail] == 0 {
			t.Fatalf("track %s recorded no grow iteration events", rail)
		}
	}
}

func TestTracedRouteBoardBuildsRunReport(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	res, _ := tracedTwoRail(t)

	rep := res.Report
	if rep == nil {
		t.Fatal("traced run must embed a RunReport")
	}
	if rep.Tool != "sprout" || rep.Board != "fault2" || rep.Layer != 1 {
		t.Fatalf("report header = %+v", rep)
	}
	if rep.DurationMS <= 0 {
		t.Fatalf("duration = %v, want > 0", rep.DurationMS)
	}
	if len(rep.Rails) != 2 {
		t.Fatalf("report rails = %d, want 2", len(rep.Rails))
	}
	for _, rail := range rep.Rails {
		if rail.Error != "" || rail.Degraded {
			t.Fatalf("healthy rail %s reported %+v", rail.Name, rail)
		}
		// Solver telemetry must be present for fully successful solves too.
		if rail.Solve.Solves == 0 || rail.Solve.Iterations == 0 {
			t.Fatalf("rail %s solve telemetry empty: %+v", rail.Name, rail.Solve)
		}
		if rail.Solve.Rungs["cg-ic0"] != rail.Solve.Solves {
			t.Fatalf("rail %s: healthy solves should all win on the primary rung: %+v",
				rail.Name, rail.Solve)
		}
		stages := map[string]obs.StageReport{}
		for _, s := range rail.Stages {
			stages[s.Stage] = s
		}
		for _, want := range []string{"seed", "grow", "refine"} {
			if stages[want].Iterations == 0 {
				t.Fatalf("rail %s stage %q missing from report: %v", rail.Name, want, rail.Stages)
			}
		}
		if rail.AreaUnits == 0 || rail.ResistanceOhms == 0 {
			t.Fatalf("rail %s impedance missing: %+v", rail.Name, rail)
		}
	}
	if rep.Counters["solver.solves"] == 0 || rep.Counters["solver.iterations"] == 0 {
		t.Fatalf("report counters = %v", rep.Counters)
	}
	if rep.Histograms["solver.cg_iterations"].Count == 0 {
		t.Fatal("report is missing the CG iteration histogram")
	}
}

func TestUntracedRunStillCarriesReportAndSolveStats(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	b, ids := twoRailBoard(t)
	res, err := sprout.RouteBoard(b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("untraced run must still build the report")
	}
	if res.Report.Counters != nil {
		t.Fatal("untraced report must not claim tracer metrics")
	}
	for _, rail := range res.Rails {
		if rail.Solve.Solves == 0 {
			t.Fatalf("rail %s dropped its solver telemetry without a tracer", rail.Name)
		}
	}
}

func TestTracedDegradedRailIsReported(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	b, ids := twoRailBoard(t)
	growErr := errors.New("injected grow failure")
	faultinject.Arm(faultinject.SiteGrow, 0, func() error { return growErr })

	tr := obs.New()
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := sprout.RouteBoardCtx(ctx, b, sprout.RouteOptions{
		Layer:   1,
		Budgets: map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rail := range res.Report.Rails {
		if !rail.Degraded || rail.Error == "" {
			t.Fatalf("rail %s not reported as degraded: %+v", rail.Name, rail)
		}
	}
	// The failed Grow span lands in the trace, and every Rail span records
	// the failure and the degrade. The seed-only route is the pipeline's
	// own: each rail tiles its space once.
	var failedGrow, degradedRail, failedRail, tilings int
	for _, r := range tr.SpanRecords() {
		switch r.Name {
		case "Grow":
			if r.Err != "" {
				failedGrow++
			}
		case "Rail":
			if r.Err != "" {
				failedRail++
			}
			for _, a := range r.Attrs {
				if a.Key == "degraded" && a.Val == true {
					degradedRail++
				}
			}
		case "SpaceToGraph":
			tilings++
		}
	}
	if failedGrow != 2 || degradedRail != 2 || failedRail != 2 || tilings != 2 {
		t.Fatalf("failed Grow spans = %d, degraded Rail spans = %d, failed Rail spans = %d, SpaceToGraph spans = %d, want 2/2/2/2",
			failedGrow, degradedRail, failedRail, tilings)
	}
}

func TestSpanSequenceDeterministicUnderFaultInject(t *testing.T) {
	defer faultinject.Reset()
	run := func() []string {
		faultinject.Reset()
		faultinject.Arm(faultinject.SiteGrow, 2, func() error { return errors.New("boom") })
		b, ids := twoRailBoard(t)
		tr := obs.New()
		ctx := obs.WithTracer(context.Background(), tr)
		if _, err := sprout.RouteBoardCtx(ctx, b, sprout.RouteOptions{
			Layer:   1,
			Budgets: map[sprout.NetID]int64{ids[0]: 3000, ids[1]: 3000},
			Config:  sprout.RouteConfig{DX: 5, DY: 5},
		}); err != nil {
			t.Fatal(err)
		}
		var seq []string
		for _, r := range tr.SpanRecords() {
			seq = append(seq, r.Track+"/"+r.Name)
		}
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("span counts differ between identical runs: %d vs %d\n%v\n%v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs between identical runs: %q vs %q", i, a[i], b[i])
		}
	}
}
