package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"sprout"
)

var update = flag.Bool("update", false, "re-pin the expected outcomes in expected/ from the current program")

// fakeWorkload's ops take about a millisecond; ops on variant failOn fail
// their check.
type fakeWorkload struct{ n, failOn int }

func (f fakeWorkload) variants() int { return f.n }
func (f fakeWorkload) op(_ context.Context, v int) (int, error) {
	time.Sleep(time.Millisecond)
	return v, nil
}
func (f fakeWorkload) check(v, _ int) (float64, error) {
	if v == f.failOn {
		return 0, errors.New("injected failure")
	}
	return 1, nil
}
func (f fakeWorkload) rebuild(ctx context.Context, v int) (int, error) { return f.op(ctx, v) }
func (f fakeWorkload) same(want, got int) error                        { return nil }
func (f fakeWorkload) layers(*traceRun, *report) error                 { return nil }

func measureFake(t *testing.T, w fakeWorkload) (*stats, *report) {
	t.Helper()
	st := &stats{}
	measureUntraced(context.Background(), workload[int](w), newCycler(1, w.n), 30*time.Millisecond, st)
	rep, err := endToEnd(st, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return st, rep
}

func TestInjectedFailureRaisesFailFrac(t *testing.T) {
	_, clean := measureFake(t, fakeWorkload{n: 3, failOn: -1})
	if !clean.Correct || clean.Failed != 0 || clean.Metrics["ok_frac"].Value != 1 {
		t.Fatalf("clean run: correct=%v failed=%d ok_frac=%g", clean.Correct, clean.Failed, clean.Metrics["ok_frac"].Value)
	}
	st, bad := measureFake(t, fakeWorkload{n: 3, failOn: 1})
	if bad.Correct || bad.Failed == 0 {
		t.Fatalf("injected failure not counted: correct=%v failed=%d", bad.Correct, bad.Failed)
	}
	// The run goes on after a failure: whole cycles, one failure in each.
	if bad.Attempted%3 != 0 || bad.Failed != bad.Attempted/3 || len(st.opMS) != bad.Attempted-bad.Failed {
		t.Fatalf("attempted=%d failed=%d completed=%d, want one failure per 3-op cycle", bad.Attempted, bad.Failed, len(st.opMS))
	}
	if got, want := bad.Metrics["ok_frac"].Value, float64(bad.Attempted-bad.Failed)/float64(bad.Attempted); got != want {
		t.Fatalf("ok_frac = %g, want %g", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n, p    int
		v       float64
		beyond  int
		comment string
	}{
		{30, 66, 20, 10, "p66 is rank 20 of 30, p67 would leave 9 beyond"},
		{100, 90, 90, 10, "p90 of 100"},
		{11, 9, 1, 10, "only the minimum has ten beyond it"},
		{10, 100, 10, 0, "too few samples: the maximum"},
	} {
		p, v, beyond := tail(seq(tc.n), minTailBeyond)
		if p != tc.p || v != tc.v || beyond != tc.beyond {
			t.Errorf("n=%d: got p%d=%g with %d beyond, want p%d=%g with %d beyond (%s)",
				tc.n, p, v, beyond, tc.p, tc.v, tc.beyond, tc.comment)
		}
	}
}

// TestPrintedNamesDeclared checks the names and units both modes print
// against BENCHMARK.json.
func TestPrintedNamesDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var decl struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}

	st := &stats{attempted: 1, opMS: []float64{1}, timed: time.Millisecond, irDropMV: []float64{1},
		rebuilds: 1, tracedMS: []float64{1}}
	e2e, err := endToEnd(st, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	layers, err := perLayer(workload[int](fakeWorkload{n: 1}), sprout.NewTracer(), st)
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, tc := range []struct {
		mode  string
		rep   *report
		decls []declared
	}{{"--trace 0", e2e, decl.EndToEnd}, {"--trace 1", layers, decl.PerLayer}} {
		want := map[string]string{}
		for _, d := range tc.decls {
			want[d.Name] = d.Unit
		}
		for name, m := range tc.rep.Metrics {
			if !valid.MatchString(name) {
				t.Errorf("%s prints %q, not a valid metric name", tc.mode, name)
			}
			unit, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s prints %s, which BENCHMARK.json does not declare for it", tc.mode, name)
			case unit != m.Unit:
				t.Errorf("%s prints %s in %s, BENCHMARK.json says %s", tc.mode, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := tc.rep.Metrics[name]; !ok {
				t.Errorf("%s does not print declared metric %s", tc.mode, name)
			}
		}
	}
}

// TestUpdatePins re-pins expected/*.json from the current program:
//
//	go test -run TestUpdatePins -update
//
// Review the diff before committing; an input the golden corpus pins is
// left to the corpus.
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("re-pins only with -update")
	}
	ctx := context.Background()
	write := func(workload string, pins []pin) {
		data, err := json.MarshalIndent(pinFile{Workload: workload, Pins: pins}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expectedPath("..", workload), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, mk := range []func(string) (*boardBench, error){sixRail, twoRailFine} {
		bb, err := mk("")
		if err != nil {
			t.Fatal(err)
		}
		var pins []pin
		for v, in := range bb.inputs {
			if in == bb.src.goldenInput {
				continue
			}
			res, err := bb.op(ctx, v)
			if err == nil {
				err = checkBoard(res, bb.opts[v].WithManual)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", bb.src.workload, in, err)
			}
			pins = append(pins, pinOf(in, nil, res.Rails))
		}
		write(bb.src.workload, pins)
	}
	xb, err := threeRailExplore("")
	if err != nil {
		t.Fatal(err)
	}
	var pins []pin
	for v, in := range xb.inputs {
		ex, err := xb.op(ctx, v)
		if err == nil && len(ex.Failed) > 0 {
			err = ex.Failed[0].Err
		}
		if err == nil {
			err = checkBoard(ex.Best, false)
		}
		if err != nil {
			t.Fatalf("threerail-explore %s: %v", in, err)
		}
		pins = append(pins, explorePin(in, ex))
	}
	write("threerail-explore", pins)
}
