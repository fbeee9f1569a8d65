package ckt

import (
	"fmt"
	"math"
	"math/cmplx"
)

// ACSolve computes the complex node voltages at angular conditions implied
// by freqHz. Current sources inject src(0) amperes as their phasor
// magnitude. The returned slice is indexed by node id with ground fixed at
// 0. freqHz = 0 degenerates to DC: inductors become shorts (modelled as
// tiny resistances) and capacitors open circuits.
func (c *Circuit) ACSolve(freqHz float64) ([]complex128, error) {
	n := c.nodes - 1 // unknowns (ground eliminated)
	if n == 0 {
		return []complex128{0}, nil
	}
	omega := 2 * math.Pi * freqHz
	y := make([]complex128, n*n)
	rhs := make([]complex128, n)
	stamp := func(a, b int, adm complex128) {
		ia, ib := a-1, b-1
		if ia >= 0 {
			y[ia*n+ia] += adm
		}
		if ib >= 0 {
			y[ib*n+ib] += adm
		}
		if ia >= 0 && ib >= 0 {
			y[ia*n+ib] -= adm
			y[ib*n+ia] -= adm
		}
	}
	for _, e := range c.elems {
		switch e.kind {
		case kindR:
			stamp(e.a, e.b, complex(1/e.val, 0))
		case kindL:
			if omega == 0 {
				// DC: near-short.
				stamp(e.a, e.b, complex(1e12, 0))
			} else {
				stamp(e.a, e.b, 1/complex(0, omega*e.val))
			}
		case kindC:
			if omega != 0 {
				stamp(e.a, e.b, complex(0, omega*e.val))
			}
		case kindI:
			i := complex(e.src(0), 0)
			if e.a > 0 {
				rhs[e.a-1] -= i
			}
			if e.b > 0 {
				rhs[e.b-1] += i
			}
		}
	}
	x, err := solveComplex(y, rhs, n)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, c.nodes)
	for i := 0; i < n; i++ {
		out[i+1] = x[i]
	}
	return out, nil
}

// Impedance returns the driving-point impedance seen at `node` against
// ground at freqHz, ignoring the circuit's own current sources.
func (c *Circuit) Impedance(node int, freqHz float64) (complex128, error) {
	if node <= 0 || node >= c.nodes {
		return 0, fmt.Errorf("ckt: impedance node %d out of range", node)
	}
	probe := *c
	probe.elems = make([]element, 0, len(c.elems)+1)
	for _, e := range c.elems {
		if e.kind != kindI {
			probe.elems = append(probe.elems, e)
		}
	}
	probe.elems = append(probe.elems, element{kindI, Ground, node, 0, func(float64) float64 { return 1 }})
	v, err := probe.ACSolve(freqHz)
	if err != nil {
		return 0, err
	}
	return v[node], nil
}

// EffectiveInductanceH extracts Im(Z)/ω at freqHz — the paper's
// "normalized inductance @ 25 MHz" metric for a rail including its
// decoupling capacitors.
func (c *Circuit) EffectiveInductanceH(node int, freqHz float64) (float64, error) {
	z, err := c.Impedance(node, freqHz)
	if err != nil {
		return 0, err
	}
	return imag(z) / (2 * math.Pi * freqHz), nil
}

// solveComplex performs Gaussian elimination with partial pivoting on an
// n x n complex system (row-major a, rhs b).
func solveComplex(a []complex128, b []complex128, n int) ([]complex128, error) {
	// Work on copies: callers may reuse the stamps.
	m := make([]complex128, len(a))
	copy(m, a)
	x := make([]complex128, len(b))
	copy(x, b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := cmplx.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(m[r*n+col]); v > best {
				best, piv = v, r
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, fmt.Errorf("ckt: singular nodal matrix at column %d (floating node?)", col)
		}
		if piv != col {
			for k := col; k < n; k++ {
				m[col*n+k], m[piv*n+k] = m[piv*n+k], m[col*n+k]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				m[r*n+k] -= f * m[col*n+k]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := x[r]
		for k := r + 1; k < n; k++ {
			sum -= m[r*n+k] * x[k]
		}
		x[r] = sum / m[r*n+r]
	}
	return x[:n], nil
}
