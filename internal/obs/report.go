package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// RunReport is the machine-readable summary of one routing run: per-rail
// stage durations, solver telemetry, impedance, and degradation flags.
// It is embedded in sprout.BoardResult (and the multilayer result) and
// written by `sprout -report out.json`. All fields marshal to plain JSON
// (no NaN/Inf — producers must sanitize), so the report round-trips
// through encoding/json.
type RunReport struct {
	Tool  string `json:"tool"`
	Board string `json:"board"`
	// Layer is the routing layer for single-layer runs (0 for multilayer).
	Layer      int  `json:"layer,omitempty"`
	Multilayer bool `json:"multilayer,omitempty"`
	// DurationMS is the wall-clock time of the whole run.
	DurationMS float64      `json:"duration_ms"`
	Rails      []RailReport `json:"rails"`
	// Counters, Gauges and Histograms snapshot the tracer metrics
	// (present only when the run was traced).
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// RailReport is one rail's slice of the run.
type RailReport struct {
	Name string `json:"name"`
	Net  int    `json:"net,omitempty"`
	// Degraded marks a rail that fell back to its seed-only route.
	Degraded bool `json:"degraded,omitempty"`
	// Error carries the rail's failure record ("" for a healthy rail).
	Error string `json:"error,omitempty"`
	// AreaUnits is the synthesized copper area in grid units squared.
	AreaUnits int64 `json:"area_units,omitempty"`
	// Vias counts the placed interlayer vias (multilayer runs only).
	Vias int `json:"vias,omitempty"`
	// ResistanceOhms / InductancePH mirror the extraction report.
	ResistanceOhms float64 `json:"resistance_ohms,omitempty"`
	InductancePH   float64 `json:"inductance_ph,omitempty"`
	// Stages breaks the pipeline down per paper stage, in execution
	// order.
	Stages []StageReport `json:"stages,omitempty"`
	// Solve summarizes the solver-ladder telemetry for every nodal
	// analysis the rail performed — including fully successful solves.
	Solve SolveReport `json:"solve"`
}

// StageReport aggregates the iterations of one pipeline stage.
type StageReport struct {
	Stage      string  `json:"stage"`
	Iterations int     `json:"iterations"`
	DurationMS float64 `json:"duration_ms"`
	// Nodes/Area/Resistance are the values after the stage's last
	// iteration.
	Nodes      int     `json:"nodes,omitempty"`
	Area       int64   `json:"area,omitempty"`
	Resistance float64 `json:"resistance,omitempty"`
}

// SolveReport summarizes solver-fallback-ladder telemetry: how many
// linear solves ran, their total CG iteration count, how often the
// ladder escalated past a rung, and the worst accepted residual.
type SolveReport struct {
	Solves      int `json:"solves"`
	Iterations  int `json:"iterations"`
	Escalations int `json:"escalations"`
	Failures    int `json:"failures,omitempty"`
	// WorstResidual is the largest relative residual any accepted solve
	// finished with (0 when no solve ran).
	WorstResidual float64 `json:"worst_residual,omitempty"`
	// Rungs counts solves won per ladder rung name.
	Rungs map[string]int `json:"rungs,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("obs: encode report: %w", err)
	}
	return nil
}

// WriteJSONFile writes the report to the named file.
func (r *RunReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: report file: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: report file: %w", err)
	}
	return nil
}
