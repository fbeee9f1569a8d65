package sparse

import (
	"errors"
	"testing"

	"sprout/internal/faultinject"
)

func TestSolveAttemptsCtxRecordsSuccessfulSolve(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lap, b := gridLaplacian(t, 10, 10)
	x, attempts, err := lap.SolveCtx(t.Context(), b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x == nil {
		t.Fatal("no solution")
	}
	if len(attempts) != 1 {
		t.Fatalf("attempts = %d, want 1 for a clean first-rung solve", len(attempts))
	}
	a := attempts[0]
	if a.Rung != RungCG || a.Err != nil {
		t.Fatalf("attempt = %+v, want accepted %s", a, RungCG)
	}
	if a.Iterations == 0 {
		t.Fatal("successful attempt must carry its CG iteration count")
	}
	if a.Residual <= 0 {
		t.Fatalf("successful attempt residual = %g, want the achieved residual", a.Residual)
	}
}

func TestSolveAttemptsCtxRecordsEscalation(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	lap, b := gridLaplacian(t, 10, 10)
	faultinject.Arm(faultinject.SiteCG, 1, func() error { return ErrNoConvergence })
	_, attempts, err := lap.SolveCtx(t.Context(), b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want the failed primary rung plus the accepted retry", len(attempts))
	}
	if attempts[0].Rung != RungCG || attempts[0].Err == nil {
		t.Fatalf("attempt 0 = %+v, want failed %s", attempts[0], RungCG)
	}
	if attempts[1].Rung != RungCGRelaxed || attempts[1].Err != nil {
		t.Fatalf("attempt 1 = %+v, want accepted %s", attempts[1], RungCGRelaxed)
	}
}

func TestSolveStatsRecord(t *testing.T) {
	boom := errors.New("boom")
	var s SolveStats
	s.Record(nil) // empty trace must not count as a solve
	s.Record([]RungAttempt{{Rung: RungCG, Iterations: 40, Residual: 2e-10}})
	s.Record([]RungAttempt{
		{Rung: RungCG, Iterations: 500, Err: boom},
		{Rung: RungCGRelaxed, Iterations: 30, Residual: 5e-8},
	})
	s.Record([]RungAttempt{
		{Rung: RungCG, Iterations: 500, Err: boom},
		{Rung: RungCGRelaxed, Iterations: 500, Err: boom},
		{Rung: RungDense, Err: boom},
	})
	if s.Solves != 3 || s.Iterations != 1570 || s.Escalations != 4 || s.Failures != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.WorstResidual != 5e-8 {
		t.Fatalf("worst residual = %g, want 5e-8", s.WorstResidual)
	}
	if s.Rungs[RungCG] != 1 || s.Rungs[RungCGRelaxed] != 1 || s.Rungs[RungDense] != 0 {
		t.Fatalf("rungs = %v", s.Rungs)
	}
	if !s.Escalated() {
		t.Fatal("Escalated() must report the rejected rungs")
	}
}

func TestSolveStatsMerge(t *testing.T) {
	a := SolveStats{Solves: 2, Iterations: 80, WorstResidual: 1e-9,
		Rungs: map[string]int{RungCG: 2}}
	b := SolveStats{Solves: 1, Iterations: 40, Escalations: 1, WorstResidual: 3e-8,
		Rungs: map[string]int{RungCGRelaxed: 1}}
	a.Merge(b)
	if a.Solves != 3 || a.Iterations != 120 || a.Escalations != 1 {
		t.Fatalf("merged = %+v", a)
	}
	if a.WorstResidual != 3e-8 {
		t.Fatalf("merged worst residual = %g", a.WorstResidual)
	}
	if a.Rungs[RungCG] != 2 || a.Rungs[RungCGRelaxed] != 1 {
		t.Fatalf("merged rungs = %v", a.Rungs)
	}
	var zero SolveStats
	zero.Merge(b) // merging into the zero value must allocate the map
	if zero.Rungs[RungCGRelaxed] != 1 {
		t.Fatalf("zero merge rungs = %v", zero.Rungs)
	}
}
