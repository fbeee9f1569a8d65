package ckt

import (
	"fmt"

	"sprout/internal/sparse"
)

// Waveform is a simulated node voltage trace.
type Waveform struct {
	T []float64 // seconds
	V []float64 // volts
}

// Min returns the minimum sample value (0 for an empty waveform).
func (w Waveform) Min() float64 {
	if len(w.V) == 0 {
		return 0
	}
	min := w.V[0]
	for _, v := range w.V[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Transient integrates the circuit from t=0 (all states zero) to tStop
// with fixed step dt using the trapezoidal rule (A-stable; the standard
// SPICE companion models). It returns one waveform per node, indexed by
// node id.
func (c *Circuit) Transient(tStop, dt float64) ([]Waveform, error) {
	if dt <= 0 || tStop <= 0 || tStop < dt {
		return nil, fmt.Errorf("ckt: bad transient window tStop=%g dt=%g", tStop, dt)
	}
	n := c.nodes - 1
	if n == 0 {
		return []Waveform{{}}, nil
	}
	steps := int(tStop/dt) + 1

	// Constant conductance matrix: resistors plus companion conductances.
	g := sparse.NewDense(n)
	stamp := func(a, b int, adm float64) {
		ia, ib := a-1, b-1
		if ia >= 0 {
			g.Addd(ia, ia, adm)
		}
		if ib >= 0 {
			g.Addd(ib, ib, adm)
		}
		if ia >= 0 && ib >= 0 {
			g.Addd(ia, ib, -adm)
			g.Addd(ib, ia, -adm)
		}
	}
	// Per-element companion state.
	type state struct {
		geq  float64
		volt float64 // previous branch voltage v(a)-v(b)
		cur  float64 // previous branch current a->b
	}
	states := make([]state, len(c.elems))
	for i, e := range c.elems {
		switch e.kind {
		case kindR:
			stamp(e.a, e.b, 1/e.val)
		case kindC:
			geq := 2 * e.val / dt
			states[i].geq = geq
			stamp(e.a, e.b, geq)
		case kindL:
			geq := dt / (2 * e.val)
			states[i].geq = geq
			stamp(e.a, e.b, geq)
		}
	}
	chol, err := g.Cholesky()
	if err != nil {
		return nil, fmt.Errorf("ckt: transient matrix not SPD (floating node?): %w", err)
	}

	wf := make([]Waveform, c.nodes)
	for i := range wf {
		wf[i].T = make([]float64, 0, steps)
		wf[i].V = make([]float64, 0, steps)
	}
	volts := make([]float64, c.nodes)
	rhs := make([]float64, n)
	record := func(t float64) {
		for i := range wf {
			wf[i].T = append(wf[i].T, t)
			wf[i].V = append(wf[i].V, volts[i])
		}
	}
	record(0)

	for s := 1; s < steps; s++ {
		t := float64(s) * dt
		for i := range rhs {
			rhs[i] = 0
		}
		inject := func(a, b int, i float64) {
			// Current i flows a -> b through the element: it leaves node a
			// and enters node b.
			if a > 0 {
				rhs[a-1] -= i
			}
			if b > 0 {
				rhs[b-1] += i
			}
		}
		for i, e := range c.elems {
			st := &states[i]
			switch e.kind {
			case kindC:
				// Trapezoidal capacitor: i_eq = geq*v_prev + i_prev,
				// companion source pushes from b to a (history source).
				inject(e.b, e.a, st.geq*st.volt+st.cur)
			case kindL:
				// Trapezoidal inductor: i_eq = i_prev + geq*v_prev,
				// history source pushes a -> b.
				inject(e.a, e.b, st.cur+st.geq*st.volt)
			case kindI:
				inject(e.a, e.b, e.src(t))
			}
		}
		x := chol.Solve(rhs)
		volts[0] = 0
		copy(volts[1:], x)
		// Update companion states.
		for i, e := range c.elems {
			st := &states[i]
			if e.kind != kindC && e.kind != kindL {
				continue
			}
			v := volts[e.a] - volts[e.b]
			switch e.kind {
			case kindC:
				st.cur = st.geq*(v-st.volt) - st.cur
			case kindL:
				st.cur = st.cur + st.geq*(v+st.volt)
			}
			st.volt = v
		}
		record(t)
	}
	return wf, nil
}
