// Package extract estimates the parasitic impedance of a synthesized power
// shape, standing in for the commercial parasitic extraction tool used in
// the paper's evaluation (§III: "the impedance of the layouts is extracted
// using a commercial parasitic extraction tool").
//
// DC resistance: the copper shape is re-tiled at a fine pitch, the tile
// conductance graph is assembled exactly as in routing (contact width per
// pitch = sheet squares), and the effective resistance between terminal
// pairs is solved by nodal analysis. Multiplying the sheet-square result
// by the layer's sheet resistance yields ohms — this is what a commercial
// extractor computes at DC for planar shapes.
//
// Loop inductance at 25 MHz: at that frequency board copper is far below
// its skin-effect corner for the relevant dimensions and the return flows
// in the adjacent reference plane, so the current distribution follows the
// DC solution and each tile edge behaves as a microstrip-over-plane
// segment with partial inductance L = μ0·h·ℓ/w. The loop inductance
// follows from the energy method: with a unit injected current,
// L_loop = Σ_edges L_edge·I_edge². This reproduces the geometry dependence
// that drives the paper's Tables II/III and Fig. 12b: long narrow shapes
// are inductive, wide shapes are not.
package extract

import (
	"context"
	"fmt"
	"math"

	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/obs"
	"sprout/internal/route"
)

// Mu0PHPerUM is the vacuum permeability expressed in picohenries per
// micrometer: μ0 = 4π×10⁻⁷ H/m = 0.4π pH/µm.
const Mu0PHPerUM = 0.4 * math.Pi

// Options configures an extraction.
type Options struct {
	// Pitch is the fine re-tiling pitch in grid units. Default 5.
	Pitch int64
	// SheetOhms is the layer's sheet resistance in ohms per square.
	// Default 0.5 mΩ/sq (1 oz copper).
	SheetOhms float64
	// HeightUM is the dielectric distance to the return reference plane in
	// micrometers. Default 100.
	HeightUM float64
}

// Validate rejects a negative pitch and a negative, NaN or infinite sheet
// resistance or dielectric height; zero selects the field's default.
func (o Options) Validate() error {
	if o.Pitch < 0 {
		return fmt.Errorf("extract: Pitch %d must be non-negative (0 selects the default 5)", o.Pitch)
	}
	if !(o.SheetOhms >= 0) || math.IsInf(o.SheetOhms, 1) {
		return fmt.Errorf("extract: SheetOhms %g must be a finite non-negative number (0 selects the default 0.5 mΩ/sq)", o.SheetOhms)
	}
	if !(o.HeightUM >= 0) || math.IsInf(o.HeightUM, 1) {
		return fmt.Errorf("extract: HeightUM %g must be a finite non-negative number (0 selects the default 100)", o.HeightUM)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Pitch == 0 {
		o.Pitch = 5
	}
	if o.SheetOhms == 0 {
		o.SheetOhms = 0.0005
	}
	if o.HeightUM == 0 {
		o.HeightUM = 100
	}
	return o
}

// Report is the extracted impedance of one net's copper shape.
type Report struct {
	// ResistanceOhms is the injection-weighted pairwise effective
	// resistance in ohms.
	ResistanceOhms float64
	// PairResistanceOhms lists per-pair effective resistances.
	PairResistanceOhms []float64
	// InductancePH is the injection-weighted loop inductance in
	// picohenries at the 25 MHz plane-return model.
	InductancePH float64
	// PairInductancePH lists per-pair loop inductances.
	PairInductancePH []float64
	// MaxCurrentDensity is the highest edge current per unit contact
	// width for a 1 A total injection (A per grid unit), the paper's
	// §I current-density design metric.
	MaxCurrentDensity float64
	// SquaresResistance is the raw resistance in sheet squares.
	SquaresResistance float64
	// Nodes is the size of the extraction graph (diagnostics).
	Nodes int
}

// ExtractCtx computes the impedance report for a copper shape connecting
// the given terminals. The fine re-tiling and the per-pair nodal solves
// run under an "Extract" tracing span; context cancellation aborts the
// solves.
func ExtractCtx(ctx context.Context, shape geom.Region, terms []route.Terminal, opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if shape.Empty() {
		return nil, fmt.Errorf("extract: empty shape")
	}
	sctx, sp := obs.StartSpan(ctx, "Extract", obs.A("pitch", opt.Pitch))
	defer sp.End()
	if err := faultinject.Check(faultinject.SiteExtract); err != nil {
		sp.Fail(err)
		return nil, fmt.Errorf("extract: %w", err)
	}
	tg, err := route.BuildTileGraph(shape, terms, opt.Pitch, opt.Pitch)
	if err != nil {
		sp.Fail(err)
		return nil, fmt.Errorf("extract: %w", err)
	}
	sp.SetAttrs(obs.A("nodes", tg.G.N()))
	members := make([]bool, tg.G.N())
	for i := range members {
		members[i] = true
	}
	volts, pairs, weights, err := tg.PairVoltagesCtx(sctx, members)
	if err != nil {
		sp.Fail(err)
		return nil, fmt.Errorf("extract: %w", err)
	}

	rep := &Report{Nodes: tg.G.N()}
	var wsum float64
	for pi := range pairs {
		v := volts[pi]
		s := tg.Terminals[pairs[pi][0]]
		t := tg.Terminals[pairs[pi][1]]
		squares := v[s] - v[t]
		rOhms := squares * opt.SheetOhms

		// Energy-method loop inductance: L = μ0·h·Σ I²/g, with I the edge
		// current under the unit pair injection and g the edge conductance
		// in squares (see package comment for the derivation; the segment
		// aspect ratio ℓ/w equals 1/g).
		var l float64
		for u := 0; u < tg.G.N(); u++ {
			to, w := tg.G.Adj(u)
			for k, x := range to {
				if x <= u {
					continue
				}
				g := w[k]
				i := g * math.Abs(v[u]-v[x])
				if i == 0 {
					continue
				}
				l += i * i / g
				// Edge current per contact width: width = g·pitch.
				dens := i / (g * float64(opt.Pitch))
				if dens > rep.MaxCurrentDensity {
					rep.MaxCurrentDensity = dens
				}
			}
		}
		lPH := Mu0PHPerUM * opt.HeightUM * l

		rep.PairResistanceOhms = append(rep.PairResistanceOhms, rOhms)
		rep.PairInductancePH = append(rep.PairInductancePH, lPH)
		rep.ResistanceOhms += weights[pi] * rOhms
		rep.InductancePH += weights[pi] * lPH
		rep.SquaresResistance += weights[pi] * squares
		wsum += weights[pi]
	}
	if wsum > 0 {
		rep.ResistanceOhms /= wsum
		rep.InductancePH /= wsum
		rep.SquaresResistance /= wsum
	}
	return rep, nil
}
