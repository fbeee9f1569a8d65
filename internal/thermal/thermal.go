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
// area. The resulting (Laplacian + diagonal) system is SPD and solved with
// the same preconditioned CG as the electrical analysis.
package thermal

import (
	"fmt"

	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/sparse"
)

// Options sets the material and boundary parameters.
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

func (o Options) withDefaults() Options {
	if o.CopperWPerMK == 0 {
		o.CopperWPerMK = 400
	}
	if o.CopperUM == 0 {
		o.CopperUM = 35
	}
	if o.BoardHTC == 0 {
		o.BoardHTC = 800
	}
	if o.UnitMM == 0 {
		o.UnitMM = 0.1
	}
	return o
}

// Map is the temperature-rise field over the shape's tiles.
type Map struct {
	// Cells locates each node's tile.
	Cells []geom.Region
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
func Simulate(op *extract.OperatingPoint, sheetOhms float64, opt Options) (*Map, error) {
	if op == nil || op.TG == nil {
		return nil, fmt.Errorf("thermal: nil operating point")
	}
	if sheetOhms <= 0 {
		return nil, fmt.Errorf("thermal: sheet resistance %g must be positive", sheetOhms)
	}
	opt = opt.withDefaults()
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

	b := sparse.NewBuilder(n)
	for _, e := range tg.G.Edges() {
		g := kSheet * e.Weight
		if g <= 0 {
			continue
		}
		b.Add(e.U, e.U, g)
		b.Add(e.V, e.V, g)
		b.Add(e.U, e.V, -g)
		b.Add(e.V, e.U, -g)
	}
	for i := 0; i < n; i++ {
		gv := opt.BoardHTC * float64(tg.Area[i]) * areaScale
		if gv <= 0 {
			return nil, fmt.Errorf("thermal: node %d has no sink path", i)
		}
		b.Add(i, i, gv)
	}
	mat := b.Build()

	q := op.NodeJouleHeat(sheetOhms)
	// IC(0) preconditions the solve; the Jacobi diagonal is built only
	// when the factorization breaks down.
	var cgOpt sparse.CGOptions
	if ic, err := sparse.NewIC0(mat); err == nil {
		cgOpt.Precond = ic
	} else {
		cgOpt.Precond = sparse.Jacobi(mat.Diag())
	}
	temp, _, err := sparse.CG(mat, q, nil, cgOpt)
	if err != nil {
		return nil, fmt.Errorf("thermal: solve: %w", err)
	}

	m := &Map{Cells: tg.Cells, RiseC: temp, TotalPowerW: op.TotalPowerW}
	for i, t := range temp {
		if t > m.MaxRiseC {
			m.MaxRiseC = t
			m.Hotspot = tg.Cells[i].Bounds().Center()
		}
	}
	return m, nil
}
