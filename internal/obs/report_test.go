package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleReport() *RunReport {
	return &RunReport{
		Tool:       "sprout",
		Board:      "two-rail-wireless",
		Layer:      7,
		DurationMS: 88.7,
		Rails: []RailReport{
			{
				Name:           "VDD1",
				Net:            1,
				AreaUnits:      5997,
				ResistanceOhms: 0.0022,
				InductancePH:   1124.7,
				Stages: []StageReport{
					{Stage: "seed", Iterations: 1, DurationMS: 1.4, Nodes: 42, Area: 2025, Resistance: 41},
					{Stage: "grow", Iterations: 9, DurationMS: 4.9, Nodes: 222, Area: 6447, Resistance: 8.9},
				},
				Solve: SolveReport{
					Solves: 46, Iterations: 900, Escalations: 1,
					WorstResidual: 3e-8,
					Rungs:         map[string]int{"cg-ic0": 45, "cg-jacobi-relaxed": 1},
				},
			},
			{
				Name: "VDD2", Net: 2, Degraded: true,
				Error: "route: grow: injected fault",
				Solve: SolveReport{Solves: 3, Iterations: 60, Failures: 1},
			},
		},
		Counters: map[string]int64{"solver.solves": 49, "solver.iterations": 960},
		Histograms: map[string]HistogramSummary{
			"solver.cg_iterations": {
				Count: 49, Sum: 960, Min: 4, Max: 41, Mean: 960.0 / 49,
				Bounds:  []float64{1, 4, 16, 64, 256, 1024, 4096, 16384},
				Buckets: []int64{0, 1, 10, 38, 0, 0, 0, 0, 0},
			},
		},
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	want := sampleReport()
	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := &RunReport{}
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the report:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestRunReportFileRoundTrip(t *testing.T) {
	want := sampleReport()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := want.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := &RunReport{}
	if err := json.NewDecoder(f).Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip changed the report")
	}
}
