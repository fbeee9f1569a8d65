package ckt

import (
	"math"
	"math/cmplx"
	"testing"
)

func step(i float64) func(float64) float64 {
	return func(t float64) float64 { return i }
}

func TestACResistorDivider(t *testing.T) {
	// 1A into two 2Ω resistors in parallel to ground: V = 1.
	c := New()
	n := c.Node("n")
	if err := c.AddR(Ground, n, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(n, Ground, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddI(Ground, n, step(1)); err != nil {
		t.Fatal(err)
	}
	v, err := c.ACSolve(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(v[n])-1) > 1e-9 || math.Abs(imag(v[n])) > 1e-9 {
		t.Fatalf("divider voltage = %v, want 1", v[n])
	}
}

func TestACRCImpedance(t *testing.T) {
	// Series R-C driven at f: Z = R - j/(ωC).
	c := New()
	n1 := c.Node("n1")
	if err := c.AddR(Ground, n1, 10); err != nil {
		t.Fatal(err)
	}
	n2 := c.Node("n2")
	if err := c.AddC(n1, n2, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Ground the far end through a tiny resistor to keep the matrix
	// non-singular, then probe the series impedance from n2.
	if err := c.AddR(n2, Ground, 1e9); err != nil {
		t.Fatal(err)
	}
	f := 1e4
	z, err := c.Impedance(n1, f)
	if err != nil {
		t.Fatal(err)
	}
	// From n1 the path to ground is the 10Ω resistor in parallel with
	// (C + 1e9Ω); at 10 kHz the branch is ~1e9Ω so Z ≈ 10.
	if math.Abs(real(z)-10) > 0.1 {
		t.Fatalf("Z = %v, want ~10", z)
	}
}

func TestACInductorImpedance(t *testing.T) {
	// Z of L to ground: jωL.
	c := New()
	n := c.Node("n")
	l := 1e-9
	if err := c.AddL(n, Ground, l); err != nil {
		t.Fatal(err)
	}
	f := 25e6
	z, err := c.Impedance(n, f)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Pi * f * l
	if math.Abs(imag(z)-want)/want > 1e-9 {
		t.Fatalf("Im(Z) = %g, want %g", imag(z), want)
	}
	lEff, err := c.EffectiveInductanceH(n, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lEff-l)/l > 1e-9 {
		t.Fatalf("effective L = %g, want %g", lEff, l)
	}
}

func TestACDecapShuntsInductance(t *testing.T) {
	// Rail L with a decap at the load: effective L @ 25 MHz drops well
	// below the bare rail L (the paper's Table II/III mechanism).
	bare := New()
	load := bare.Node("load")
	mid := bare.Node("mid")
	if err := bare.AddR(Ground, mid, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := bare.AddL(mid, load, 1e-9); err != nil {
		t.Fatal(err)
	}
	lBare, err := bare.EffectiveInductanceH(load, 25e6)
	if err != nil {
		t.Fatal(err)
	}

	m := PDNModel{VSupply: 1, ROhms: 0.01, LHenry: 1e-9,
		Decaps: []Decap{DefaultDecap()}, ILoad: 1, SlewNS: 10}
	lWith, err := m.EffectiveInductancePH(25e6)
	if err != nil {
		t.Fatal(err)
	}
	if lWith >= lBare*1e12 {
		t.Fatalf("decap must reduce 25 MHz inductance: bare %g pH with %g pH",
			lBare*1e12, lWith)
	}
}

func TestACSingularDetection(t *testing.T) {
	c := New()
	n := c.Node("floating")
	_ = n
	m := c.Node("m")
	if err := c.AddR(m, Ground, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ACSolve(0); err == nil {
		t.Fatal("floating node must make the matrix singular")
	}
}

func TestTransientRCStepResponse(t *testing.T) {
	// Current step I into R ∥ C: v(t) = IR(1 - e^{-t/RC}).
	c := New()
	n := c.Node("n")
	r, cap, i0 := 100.0, 1e-6, 0.01
	if err := c.AddR(n, Ground, r); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(n, Ground, cap); err != nil {
		t.Fatal(err)
	}
	if err := c.AddI(Ground, n, step(i0)); err != nil {
		t.Fatal(err)
	}
	tau := r * cap
	wf, err := c.Transient(5*tau, tau/200)
	if err != nil {
		t.Fatal(err)
	}
	for k, tt := range wf[n].T {
		want := i0 * r * (1 - math.Exp(-tt/tau))
		if math.Abs(wf[n].V[k]-want) > 0.02*i0*r {
			t.Fatalf("t=%g: v=%g want %g", tt, wf[n].V[k], want)
		}
	}
}

func TestTransientRLCSettlesToIRDrop(t *testing.T) {
	// Series R-L rail feeding a load with a damping capacitor, drawing a
	// ramped current: the load deviation must settle to -I*R.
	c := New()
	mid := c.Node("mid")
	load := c.Node("load")
	cap1 := c.Node("cap1")
	r, l, i0 := 0.1, 1e-9, 1.0
	if err := c.AddR(Ground, mid, r); err != nil {
		t.Fatal(err)
	}
	if err := c.AddL(mid, load, l); err != nil {
		t.Fatal(err)
	}
	if err := c.AddR(load, cap1, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(cap1, Ground, 1e-6); err != nil {
		t.Fatal(err)
	}
	slew := 20e-9
	ramp := func(t float64) float64 {
		if t >= slew {
			return i0
		}
		return i0 * t / slew
	}
	if err := c.AddI(load, Ground, ramp); err != nil {
		t.Fatal(err)
	}
	window := 10 * r * 1e-6 // 10 RC of the damping cap
	wf, err := c.Transient(window, window/4000)
	if err != nil {
		t.Fatal(err)
	}
	final := wf[load].V[len(wf[load].V)-1]
	if math.Abs(final-(-i0*r)) > 0.02*i0*r {
		t.Fatalf("settled deviation = %g, want %g", final, -i0*r)
	}
	// The deviation never swings past a few IR drops.
	if wf[load].Min() < -3*i0*r {
		t.Fatalf("excessive droop %g vs IR %g", wf[load].Min(), i0*r)
	}
}

func TestTransientLCOscillation(t *testing.T) {
	// LC tank kicked by a brief current: energy must oscillate at
	// f = 1/(2π√(LC)) with little numerical damping (trapezoidal is
	// A-stable and non-dissipative).
	c := New()
	n := c.Node("n")
	l, cap := 1e-9, 1e-9
	if err := c.AddL(n, Ground, l); err != nil {
		t.Fatal(err)
	}
	if err := c.AddC(n, Ground, cap); err != nil {
		t.Fatal(err)
	}
	pulse := func(t float64) float64 {
		if t < 2e-10 {
			return 1
		}
		return 0
	}
	if err := c.AddI(Ground, n, pulse); err != nil {
		t.Fatal(err)
	}
	period := 2 * math.Pi * math.Sqrt(l*cap)
	wf, err := c.Transient(5*period, period/400)
	if err != nil {
		t.Fatal(err)
	}
	// Count zero crossings in the tail: ~2 per period over 4 periods.
	cross := 0
	v := wf[n].V
	for k := len(v) / 5; k+1 < len(v); k++ {
		if (v[k] > 0) != (v[k+1] > 0) {
			cross++
		}
	}
	if cross < 6 || cross > 10 {
		t.Fatalf("zero crossings = %d, want ~8 (oscillation at the LC frequency)", cross)
	}
}

func TestTransientValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	if err := c.AddR(n, Ground, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transient(0, 1e-9); err == nil {
		t.Fatal("zero window must error")
	}
	if _, err := c.Transient(1e-6, 0); err == nil {
		t.Fatal("zero step must error")
	}
}

func TestCircuitValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	if err := c.AddR(n, n, 1); err == nil {
		t.Fatal("self loop must error")
	}
	if err := c.AddR(n, 99, 1); err == nil {
		t.Fatal("bad node must error")
	}
	if err := c.AddR(n, Ground, -1); err == nil {
		t.Fatal("negative R must error")
	}
	if err := c.AddL(n, Ground, 0); err == nil {
		t.Fatal("zero L must error")
	}
	if err := c.AddC(n, Ground, -1e-6); err == nil {
		t.Fatal("negative C must error")
	}
	if err := c.AddI(n, Ground, nil); err == nil {
		t.Fatal("nil source must error")
	}
}

func TestPDNMinLoadVoltage(t *testing.T) {
	m := PDNModel{
		VSupply: 1, ROhms: 0.015, LHenry: 150e-12,
		ILoad: 2, SlewNS: 5,
	}
	vmin, err := m.MinLoadVoltage()
	if err != nil {
		t.Fatal(err)
	}
	// Drop must be at least the IR floor and less than 3x it (inductive
	// overshoot bounded for this gentle slew).
	ir := m.ILoad * m.ROhms
	if vmin > 1-ir+1e-6 {
		t.Fatalf("min voltage %g misses the IR floor %g", vmin, 1-ir)
	}
	if vmin < 1-3*ir {
		t.Fatalf("min voltage %g implausibly low vs IR %g", vmin, ir)
	}
}

func TestPDNDecapImprovesMinVoltage(t *testing.T) {
	base := PDNModel{VSupply: 1, ROhms: 0.01, LHenry: 2e-9, ILoad: 3, SlewNS: 2}
	vBare, err := base.MinLoadVoltage()
	if err != nil {
		t.Fatal(err)
	}
	withDecap := base
	withDecap.Decaps = []Decap{DefaultDecap(), DefaultDecap()}
	vDecap, err := withDecap.MinLoadVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if vDecap < vBare-1e-9 {
		t.Fatalf("decaps must not worsen the droop: bare %g with %g", vBare, vDecap)
	}
}

func TestPDNLowerRHigherVmin(t *testing.T) {
	hiR := PDNModel{VSupply: 1, ROhms: 0.03, LHenry: 150e-12, ILoad: 2, SlewNS: 5}
	loR := hiR
	loR.ROhms = 0.01
	vHi, err := hiR.MinLoadVoltage()
	if err != nil {
		t.Fatal(err)
	}
	vLo, err := loR.MinLoadVoltage()
	if err != nil {
		t.Fatal(err)
	}
	if vLo <= vHi {
		t.Fatalf("lower R must raise the minimum voltage: %g vs %g", vLo, vHi)
	}
}

func TestPDNValidation(t *testing.T) {
	bad := []PDNModel{
		{VSupply: 0, ROhms: 1, LHenry: 1, ILoad: 1, SlewNS: 1},
		{VSupply: 1, ROhms: 0, LHenry: 1, ILoad: 1, SlewNS: 1},
		{VSupply: 1, ROhms: 1, LHenry: 0, ILoad: 1, SlewNS: 1},
		{VSupply: 1, ROhms: 1, LHenry: 1, ILoad: 0, SlewNS: 1},
		{VSupply: 1, ROhms: 1, LHenry: 1, ILoad: 1, SlewNS: 0},
		{VSupply: 1, ROhms: 1, LHenry: 1, ILoad: 1, SlewNS: 1, Decaps: []Decap{{}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d must be rejected", i)
		}
	}
}

func TestFinFETDelayMonotone(t *testing.T) {
	g := DefaultFinFET()
	d1, err := g.Delay(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-1) > 1e-12 {
		t.Fatalf("delay at nominal = %g, want 1", d1)
	}
	prev := d1
	for _, v := range []float64{0.98, 0.95, 0.9, 0.85} {
		d, err := g.Delay(v)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Fatalf("delay must increase as voltage drops: %g at %g", d, v)
		}
		prev = d
	}
	if _, err := g.Delay(0.2); err == nil {
		t.Fatal("sub-threshold voltage must error")
	}
}

func TestFinFETDelaySensitivity(t *testing.T) {
	// Paper: +36 mV on a ~0.95 V rail gives ~7% delay improvement. Our
	// guideline should be in that ballpark (3-12% for 36 mV).
	g := DefaultFinFET()
	dLow, err := g.Delay(0.914)
	if err != nil {
		t.Fatal(err)
	}
	dHigh, err := g.Delay(0.950)
	if err != nil {
		t.Fatal(err)
	}
	imp := (dLow - dHigh) / dLow
	if imp < 0.03 || imp > 0.12 {
		t.Fatalf("36 mV delay improvement = %.1f%%, want 3-12%%", imp*100)
	}
}

func TestFinFETPower(t *testing.T) {
	g := DefaultFinFET()
	if p := g.DynamicPower(1.0); math.Abs(p-1) > 1e-12 {
		t.Fatalf("power at nominal = %g", p)
	}
	if p := g.DynamicPower(0.964); math.Abs(p-0.964*0.964) > 1e-12 {
		t.Fatalf("power = %g, want V²", p)
	}
}

func TestWaveformMinMax(t *testing.T) {
	w := Waveform{T: []float64{0, 1, 2}, V: []float64{0.5, -1, 2}}
	if w.Min() != -1 {
		t.Fatalf("min = %g", w.Min())
	}
	var empty Waveform
	if empty.Min() != 0 {
		t.Fatal("empty waveform min must be 0")
	}
}

func TestSolveComplexKnownSystem(t *testing.T) {
	// [1 j; -j 2] x = [1+j, 0]
	a := []complex128{1, 1i, -1i, 2}
	b := []complex128{1 + 1i, 0}
	x, err := solveComplex(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual.
	r0 := a[0]*x[0] + a[1]*x[1] - b[0]
	r1 := a[2]*x[0] + a[3]*x[1] - b[1]
	if cmplx.Abs(r0) > 1e-12 || cmplx.Abs(r1) > 1e-12 {
		t.Fatalf("residual = %v %v", r0, r1)
	}
}
