// Package thermal estimates the steady-state temperature rise of a routed
// power shape under its DC operating point. The paper lists the thermal
// profile among the constraints that distinguish power routing from signal
// routing (§I, Table I: "current density, temperature, metal resources");
// this package closes that loop: Joule heat from the extracted branch
// currents spreads laterally through the copper and sinks vertically into
// the board, giving a per-tile temperature-rise map and the hotspot.
//
// Model: on the extraction tile graph, lateral thermal conductance between
// adjacent tiles is κ_cu·t_cu per square times the contact geometry (the
// same "squares" the electrical graph uses), and every tile leaks to
// ambient through an effective board heat-transfer coefficient times its
// area. The heat network is the tile graph plus one ambient node that
// every tile's sink conductance reaches; grounding the ambient node gives
// an SPD grounded Laplacian whose potentials are the rises above ambient.
// It is stamped and solved exactly as the electrical analysis is:
// sparse.ReassembleLaplacian and the solver's fallback ladder.
package thermal

import (
	"context"
	"fmt"
	"math"

	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/sparse"
)

// Options sets the material and boundary parameters. Negative, NaN and
// infinite values are rejected.
type Options struct {
	// CopperWPerMK is copper thermal conductivity. Zero selects 400 W/mK.
	CopperWPerMK float64
	// CopperUM is the copper thickness in µm. Zero selects 35.
	CopperUM float64
	// BoardHTC is the effective heat-transfer coefficient from a tile into
	// the board and onward to ambient, in W/m²K. Zero selects 800 (FR4
	// with inner-plane spreading).
	BoardHTC float64
	// UnitMM is the size of one grid unit in millimetres. Zero selects 0.1.
	UnitMM float64
}

// withDefaults fills zero fields with their defaults. A negative, NaN or
// infinite field is an error naming it: a negative copper conductivity or
// thickness would make every lateral conductance negative, and a negative
// unit size would be squared away unnoticed.
func (o Options) withDefaults() (Options, error) {
	for _, f := range []struct {
		name string
		v    *float64
		def  float64
	}{
		{"CopperWPerMK", &o.CopperWPerMK, 400},
		{"CopperUM", &o.CopperUM, 35},
		{"BoardHTC", &o.BoardHTC, 800},
		{"UnitMM", &o.UnitMM, 0.1},
	} {
		if !(*f.v >= 0) || math.IsInf(*f.v, 1) {
			return o, fmt.Errorf("thermal: %s %g must be a finite non-negative number; use 0 for the default", f.name, *f.v)
		}
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	return o, nil
}

// Map is the temperature-rise field over the shape's tiles.
type Map struct {
	// Cells locates each node's tile by its disjoint fragments
	// (route.TileGraph.Cells).
	Cells [][]geom.Rect
	// RiseC is the temperature rise above ambient per node, in kelvin.
	RiseC []float64
	// MaxRiseC and Hotspot locate the peak.
	MaxRiseC float64
	Hotspot  geom.Point
	// TotalPowerW echoes the dissipated power driving the map.
	TotalPowerW float64
}

// Simulate solves the steady-state heat balance for an electrical
// operating point. sheetOhms must match the extraction that produced op.
// Context cancellation aborts the solve.
func Simulate(ctx context.Context, op *extract.OperatingPoint, sheetOhms float64, opt Options) (*Map, error) {
	if op == nil || op.TG == nil {
		return nil, fmt.Errorf("thermal: nil operating point")
	}
	if sheetOhms <= 0 {
		return nil, fmt.Errorf("thermal: sheet resistance %g must be positive", sheetOhms)
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	tg := op.TG
	n := tg.G.N()
	if n == 0 {
		return nil, fmt.Errorf("thermal: empty graph")
	}

	// Lateral: κ_cu·t_cu (W/K per square) scaled by the electrical edge's
	// squares count (contact/pitch — identical geometry factor).
	kSheet := opt.CopperWPerMK * opt.CopperUM * 1e-6 // W/K per square
	// Vertical: h · area, with area converted from grid units² to m².
	unitM := opt.UnitMM * 1e-3
	areaScale := unitM * unitM

	// Node n is ambient. Each tile's row lists its lateral neighbours and
	// then the ambient node; the ambient row lists every tile.
	gRow, gTo, squares := tg.G.CSR()
	m := len(gTo) + 2*n
	rowPtr, to, w := make([]int, n+2), make([]int, 0, m), make([]float64, 0, m)
	for u := 0; u < n; u++ {
		for k := gRow[u]; k < gRow[u+1]; k++ {
			to = append(to, gTo[k])
			w = append(w, kSheet*squares[k])
		}
		sink := opt.BoardHTC * float64(tg.Area[u]) * areaScale
		if sink <= 0 {
			return nil, fmt.Errorf("thermal: node %d has no sink path", u)
		}
		to = append(to, n)
		w = append(w, sink)
		rowPtr[u+1] = len(to)
	}
	for u := 0; u < n; u++ {
		to = append(to, u)
		w = append(w, w[rowPtr[u+1]-1])
	}
	rowPtr[n+1] = len(to)
	lap, err := sparse.ReassembleLaplacian(nil, rowPtr, to, w, n)
	if err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}
	temp, _, err := lap.SolveCtx(ctx, append(op.NodeJouleHeat(sheetOhms), 0), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("thermal: solve: %w", err)
	}

	mp := &Map{Cells: tg.Cells, RiseC: temp[:n], TotalPowerW: op.TotalPowerW}
	for i, t := range mp.RiseC {
		if t > mp.MaxRiseC {
			mp.MaxRiseC = t
			mp.Hotspot = tg.Bounds(i).Center()
		}
	}
	return mp, nil
}
