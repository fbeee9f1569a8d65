package ckt

import (
	"fmt"
	"math"
)

// Decap is a decoupling capacitor with its parasitics.
type Decap struct {
	C   float64 // farads
	ESR float64 // ohms
	ESL float64 // henries
}

// DefaultDecap returns a typical 10 µF MLCC (ESR 5 mΩ, ESL 0.5 nH), the
// class of on-board decaps in the paper's case studies.
func DefaultDecap() Decap {
	return Decap{C: 10e-6, ESR: 0.005, ESL: 0.5e-9}
}

// PDNModel is the lumped model of one rail used for the Fig. 12c/d
// analysis: the supply (PMIC output, treated as ideal at DC) feeds the
// load through the extracted rail resistance and inductance; decaps hang
// at the load; the load draws a ramped current step.
type PDNModel struct {
	// VSupply is the nominal rail voltage (1 V in the case study).
	VSupply float64
	// ROhms, LHenry are the extracted rail parasitics.
	ROhms  float64
	LHenry float64
	// Decaps at the load node.
	Decaps []Decap
	// ILoad is the load current step magnitude in amperes.
	ILoad float64
	// SlewNS is the 0→ILoad ramp time in nanoseconds.
	SlewNS float64
	// CLoadF is the lumped die/package capacitance at the load node in
	// farads; it damps the rail inductance physically. Zero selects 1 µF.
	CLoadF float64
	// CLoadESR is the ESR of the load capacitance in ohms. Zero selects
	// 10 mΩ.
	CLoadESR float64
}

// Validate reports the first modelling error.
func (m PDNModel) Validate() error {
	if m.VSupply <= 0 {
		return fmt.Errorf("ckt: supply voltage %g must be positive", m.VSupply)
	}
	if m.ROhms <= 0 || m.LHenry <= 0 {
		return fmt.Errorf("ckt: rail parasitics R=%g L=%g must be positive", m.ROhms, m.LHenry)
	}
	if m.ILoad <= 0 || m.SlewNS <= 0 {
		return fmt.Errorf("ckt: load %gA slew %gns must be positive", m.ILoad, m.SlewNS)
	}
	for i, d := range m.Decaps {
		if d.C <= 0 || d.ESR <= 0 || d.ESL <= 0 {
			return fmt.Errorf("ckt: decap %d has non-positive parameters", i)
		}
	}
	return nil
}

// build assembles the drop network: ground plays the supply, `load` is the
// load node, and the returned circuit computes the voltage drop v(load)
// caused by the ramped load current.
func (m PDNModel) build(withLoadCap bool) (*Circuit, int, error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	c := New()
	mid := c.Node()
	load := c.Node()
	if err := c.AddR(Ground, mid, m.ROhms); err != nil {
		return nil, 0, err
	}
	if err := c.AddL(mid, load, m.LHenry); err != nil {
		return nil, 0, err
	}
	if withLoadCap {
		// Die/package capacitance at the load: always present physically,
		// and it provides the damping path for the rail inductance in the
		// transient analysis.
		cload := m.CLoadF
		if cload <= 0 {
			cload = 1e-6
		}
		cesr := m.CLoadESR
		if cesr <= 0 {
			cesr = 0.01
		}
		nl := c.Node()
		if err := c.AddR(load, nl, cesr); err != nil {
			return nil, 0, err
		}
		if err := c.AddC(nl, Ground, cload); err != nil {
			return nil, 0, err
		}
	}
	for _, d := range m.Decaps {
		n1 := c.Node()
		n2 := c.Node()
		if err := c.AddR(load, n1, d.ESR); err != nil {
			return nil, 0, err
		}
		if err := c.AddL(n1, n2, d.ESL); err != nil {
			return nil, 0, err
		}
		if err := c.AddC(n2, Ground, d.C); err != nil {
			return nil, 0, err
		}
	}
	slew := m.SlewNS * 1e-9
	iload := m.ILoad
	ramp := func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		if t >= slew {
			return iload
		}
		return iload * t / slew
	}
	if err := c.AddI(load, Ground, ramp); err != nil {
		return nil, 0, err
	}
	return c, load, nil
}

// MinLoadVoltage simulates the load-step transient and returns the minimum
// instantaneous load voltage (Fig. 12c). The simulated node voltage is the
// deviation from the supply (the load draws current, so it swings
// negative); the result is V_supply + min(deviation). The window is sized
// to cover the ramp plus several rail L/R time constants and the load-cap
// recharge.
func (m PDNModel) MinLoadVoltage() (float64, error) {
	c, load, err := m.build(true)
	if err != nil {
		return 0, err
	}
	slew := m.SlewNS * 1e-9
	tau := m.LHenry / m.ROhms
	window := slew + 10*tau
	cload := m.CLoadF
	if cload <= 0 {
		cload = 1e-6
	}
	if t := 10 * m.ROhms * cload; t > window {
		window = t
	}
	for _, d := range m.Decaps {
		if t := 5 * math.Sqrt(d.C*(m.LHenry+d.ESL)); t > window {
			window = t
		}
	}
	dt := window / 4000
	wf, err := c.Transient(window, dt)
	if err != nil {
		return 0, err
	}
	return m.VSupply + wf[load].Min(), nil
}

// EffectiveInductancePH reports Im(Z)/ω of the rail seen from the load at
// freqHz, including the decaps, in picohenries. This is the paper's
// "normalized inductance @ 25 MHz" (Tables II/III, Fig. 12b): decaps shunt
// the rail inductance, which is why the modem and CPU rails in the paper
// barely improve with area. The die capacitance is excluded — the metric
// characterizes the board PDN the die sees, not the die itself.
func (m PDNModel) EffectiveInductancePH(freqHz float64) (float64, error) {
	c, load, err := m.build(false)
	if err != nil {
		return 0, err
	}
	l, err := c.EffectiveInductanceH(load, freqHz)
	if err != nil {
		return 0, err
	}
	return l * 1e12, nil
}

// FinFETGuideline maps a load voltage to normalized transistor propagation
// delay using the alpha-power law fitted to the 32 nm FinFET guidelines of
// paper reference [35]: t_p ∝ V / (V - V_th)^α. Delay is normalized to 1.0
// at V = VNom. Dynamic power scales as (V/VNom)².
type FinFETGuideline struct {
	VNom  float64 // nominal supply (1 V)
	VTh   float64 // threshold voltage
	Alpha float64 // velocity-saturation exponent
}

// DefaultFinFET returns the 32 nm FinFET guideline constants.
func DefaultFinFET() FinFETGuideline {
	return FinFETGuideline{VNom: 1.0, VTh: 0.25, Alpha: 1.4}
}

// Delay returns the normalized propagation delay at load voltage v.
func (g FinFETGuideline) Delay(v float64) (float64, error) {
	if v <= g.VTh {
		return 0, fmt.Errorf("ckt: load voltage %g below threshold %g", v, g.VTh)
	}
	nom := g.VNom / math.Pow(g.VNom-g.VTh, g.Alpha)
	return (v / math.Pow(v-g.VTh, g.Alpha)) / nom, nil
}

// DynamicPower returns the normalized dynamic power at load voltage v.
func (g FinFETGuideline) DynamicPower(v float64) float64 {
	r := v / g.VNom
	return r * r
}
