// Package ckt provides the lumped circuit simulation substrate for the
// paper's voltage-drop and performance analysis (Fig. 12c-d): complex AC
// nodal analysis, trapezoidal transient simulation of R/L/C networks with
// time-varying current loads, a PDN model builder (rail R-L, decoupling
// capacitors with ESR/ESL, load current ramps), and the 32 nm FinFET
// alpha-power delay and dynamic power guidelines of paper reference [35].
package ckt

import "fmt"

// Ground is the reference node id.
const Ground = 0

// elemKind enumerates circuit element types.
type elemKind int

const (
	kindR elemKind = iota
	kindL
	kindC
	kindI
)

// element is one two-terminal circuit element between nodes a and b.
type element struct {
	kind elemKind
	a, b int
	val  float64
	// src is the time-dependent current for kindI (amperes flowing from a
	// to b through the source).
	src func(t float64) float64
}

// Circuit is a lumped linear circuit. Node 0 is ground. The zero value is
// not usable; construct with New.
type Circuit struct {
	// nodes counts the nodes, ground included.
	nodes int
	elems []element
}

// New creates an empty circuit containing only the ground node.
func New() *Circuit {
	return &Circuit{nodes: 1}
}

// Node allocates a new circuit node and returns its id.
func (c *Circuit) Node() int {
	c.nodes++
	return c.nodes - 1
}

func (c *Circuit) checkNodes(a, b int) error {
	if a < 0 || a >= c.nodes || b < 0 || b >= c.nodes {
		return fmt.Errorf("ckt: nodes (%d,%d) out of range [0,%d)", a, b, c.nodes)
	}
	if a == b {
		return fmt.Errorf("ckt: element shorted to itself at node %d", a)
	}
	return nil
}

// AddR inserts a resistor of the given ohms between a and b.
func (c *Circuit) AddR(a, b int, ohms float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if ohms <= 0 {
		return fmt.Errorf("ckt: resistance must be positive, got %g", ohms)
	}
	c.elems = append(c.elems, element{kindR, a, b, ohms, nil})
	return nil
}

// AddL inserts an inductor of the given henries between a and b.
func (c *Circuit) AddL(a, b int, henries float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if henries <= 0 {
		return fmt.Errorf("ckt: inductance must be positive, got %g", henries)
	}
	c.elems = append(c.elems, element{kindL, a, b, henries, nil})
	return nil
}

// AddC inserts a capacitor of the given farads between a and b.
func (c *Circuit) AddC(a, b int, farads float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if farads <= 0 {
		return fmt.Errorf("ckt: capacitance must be positive, got %g", farads)
	}
	c.elems = append(c.elems, element{kindC, a, b, farads, nil})
	return nil
}

// AddI inserts a time-varying current source pushing src(t) amperes from
// node a into node b (conventional current). For AC analysis the source
// magnitude is src(0).
func (c *Circuit) AddI(a, b int, src func(t float64) float64) error {
	if err := c.checkNodes(a, b); err != nil {
		return err
	}
	if src == nil {
		return fmt.Errorf("ckt: nil current source")
	}
	c.elems = append(c.elems, element{kindI, a, b, 0, src})
	return nil
}
