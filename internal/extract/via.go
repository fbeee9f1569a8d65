package extract

import (
	"fmt"
	"math"
)

// ViaSpec describes one via barrel for parasitic estimation.
type ViaSpec struct {
	// DrillUM is the finished drill diameter in µm.
	DrillUM float64
	// PlatingUM is the barrel plating thickness in µm (typ. 25).
	PlatingUM float64
	// LengthUM is the barrel length (layer-to-layer dielectric span).
	LengthUM float64
}

// Validate reports the first bad parameter.
func (v ViaSpec) Validate() error {
	if v.DrillUM <= 0 || v.PlatingUM <= 0 || v.LengthUM <= 0 {
		return fmt.Errorf("extract: via spec %+v must be positive", v)
	}
	return nil
}

// ResistanceOhms returns the DC resistance of the plated barrel:
// ρ·L / A with A the plating annulus cross-section.
func (v ViaSpec) ResistanceOhms() (float64, error) {
	if err := v.Validate(); err != nil {
		return 0, err
	}
	const rhoOhmUM = 0.0172 // copper, Ω·µm
	rOuter := v.DrillUM/2 + v.PlatingUM
	rInner := v.DrillUM / 2
	area := math.Pi * (rOuter*rOuter - rInner*rInner) // µm²
	return rhoOhmUM * v.LengthUM / area, nil
}

// InductancePH returns the partial self-inductance of the barrel using the
// standard round-wire formula L = (μ0/2π)·l·(ln(4l/d) - 0.75)
// (Grover), in picohenries.
func (v ViaSpec) InductancePH() (float64, error) {
	if err := v.Validate(); err != nil {
		return 0, err
	}
	lM := v.LengthUM * 1e-6
	dM := v.DrillUM * 1e-6
	arg := 4 * lM / dM
	if arg <= 1 {
		// Stubby via: inductance is negligible; clamp the log.
		arg = math.E
	}
	const mu0Over2Pi = 2e-7 // H/m
	l := mu0Over2Pi * lM * (math.Log(arg) - 0.75)
	if l < 0 {
		l = 0
	}
	return l * 1e12, nil
}
