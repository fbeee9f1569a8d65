// Package drc audits synthesized layouts against the design rules and
// electrical constraints the paper lists for power routing (§I, Table I:
// "current density, temperature, metal resources"): inter-net clearance,
// minimum feature width, blockage violations, terminal connectivity, area
// budgets, and peak current density. SPROUT's construction should make
// these pass by design; the auditor turns that belief into a checked
// invariant, which is what a production flow signs off on.
package drc

import (
	"fmt"
	"sort"

	"sprout/internal/geom"
	"sprout/internal/route"
)

// Severity grades a violation.
type Severity int

// Severity levels.
const (
	// Error violations make a layout unmanufacturable or electrically
	// broken.
	Error Severity = iota
	// Warning violations are quality concerns (excess current density,
	// budget overshoot).
	Warning
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Error {
		return "ERROR"
	}
	return "WARNING"
}

// Violation is one audit finding.
type Violation struct {
	Severity Severity
	Rule     string
	Net      string
	// Where localizes the finding when geometry is involved.
	Where geom.Rect
	Msg   string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s [%s] net=%s at %v: %s", v.Severity, v.Rule, v.Net, v.Where, v.Msg)
}

// Shape is one routed net to audit.
type Shape struct {
	Net       string
	Copper    geom.Region
	Terminals []route.Terminal
	// Budget is the area budget; zero disables the budget check.
	Budget int64
	// MaxCurrentDensity is the extracted peak density (A per grid unit of
	// contact width for a 1 A injection); zero disables the check.
	MaxCurrentDensity float64
}

// Limits configures the audit.
type Limits struct {
	// Clearance is the required inter-net spacing (grid units).
	Clearance int64
	// MinWidth is the minimum feature width (grid units); shapes must
	// survive erosion by MinWidth/2. Zero disables the check.
	MinWidth int64
	// BudgetSlack is the tolerated overshoot above the budget in grid
	// units² (one grow batch of tiles is typical). Zero means exact.
	BudgetSlack int64
	// DensityLimit flags shapes whose extracted peak current density
	// exceeds it. Zero disables the check.
	DensityLimit float64
}

// Audit checks every rule and returns the findings sorted by severity then
// net. blockages is the keepout-and-other-net geometry each shape must
// avoid entirely (unbloated); avail maps each net to its legal space.
func Audit(shapes []Shape, avail map[string]geom.Region, blockages geom.Region, lim Limits) []Violation {
	var out []Violation
	add := func(sev Severity, rule, net string, where geom.Rect, format string, args ...interface{}) {
		out = append(out, Violation{
			Severity: sev, Rule: rule, Net: net, Where: where,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	for i, s := range shapes {
		if s.Copper.Empty() {
			add(Error, "empty", s.Net, geom.Rect{}, "net has no copper")
			continue
		}
		// Containment within the net's available space.
		if a, ok := avail[s.Net]; ok {
			if escape := s.Copper.Subtract(a); !escape.Empty() {
				add(Error, "containment", s.Net, escape.Bounds(),
					"%d units² of copper outside the available space", escape.Area())
			}
		}
		// Blockage overlap.
		if !blockages.Empty() {
			if hit := s.Copper.Intersect(blockages); !hit.Empty() {
				add(Error, "blockage", s.Net, hit.Bounds(),
					"copper overlaps a blockage by %d units²", hit.Area())
			}
		}
		// Terminal connectivity: one component must reach every terminal.
		if len(s.Terminals) >= 2 && !connectsAll(s.Copper, s.Terminals) {
			add(Error, "connectivity", s.Net, s.Copper.Bounds(),
				"no single copper component reaches all %d terminals", len(s.Terminals))
		}
		// Inter-net clearance (pairwise).
		for j := i + 1; j < len(shapes); j++ {
			o := shapes[j]
			if o.Copper.Empty() {
				continue
			}
			if hit := s.Copper.Bloat(lim.Clearance).Intersect(o.Copper); !hit.Empty() {
				add(Error, "clearance", s.Net+"/"+o.Net, hit.Bounds(),
					"nets closer than %d units", lim.Clearance)
			}
		}
		// Minimum width: eroding by MinWidth/2 must not erase any
		// component that carries a terminal (thin necks are acceptable only
		// in non-critical stubs; a vanished terminal patch is not).
		if lim.MinWidth > 1 {
			eroded := s.Copper.Erode(lim.MinWidth / 2)
			for _, t := range s.Terminals {
				if !eroded.Overlaps(t.Shape.Bloat(lim.MinWidth)) {
					add(Warning, "min-width", s.Net, t.Shape.Bounds(),
						"copper at terminal %s thinner than %d units", t.Name, lim.MinWidth)
				}
			}
		}
		// Area budget.
		if s.Budget > 0 {
			if got := s.Copper.Area(); got > s.Budget+lim.BudgetSlack {
				add(Warning, "budget", s.Net, s.Copper.Bounds(),
					"area %d exceeds budget %d (+%d slack)", got, s.Budget, lim.BudgetSlack)
			}
		}
		// Current density.
		if lim.DensityLimit > 0 && s.MaxCurrentDensity > lim.DensityLimit {
			add(Warning, "current-density", s.Net, s.Copper.Bounds(),
				"peak density %.3g exceeds limit %.3g", s.MaxCurrentDensity, lim.DensityLimit)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity < out[j].Severity
		}
		return out[i].Net < out[j].Net
	})
	return out
}

// connectsAll reports whether the copper plus the terminals form one
// electrical net. A terminal group's pads are virtually stitched (a BGA
// via cluster is bonded through its balls on other layers), so every
// copper component touching any pad of a group is connected to every other
// component touching that group. The check joins the copper components
// in one geom.Sets, with one virtual bridge per terminal.
func connectsAll(copper geom.Region, terms []route.Terminal) bool {
	joined := copper
	for _, t := range terms {
		joined = joined.Union(t.Shape)
	}
	comps := joined.Components()
	var sets geom.Sets
	sets.Reset(len(comps))
	termRoot := make([]int, len(terms))
	for ti, t := range terms {
		first := -1
		for ci, comp := range comps {
			if comp.Overlaps(t.Shape) {
				if first == -1 {
					first = ci
				} else {
					sets.Join(first, ci)
				}
			}
		}
		if first == -1 {
			return false // terminal untouched by any conductor
		}
		termRoot[ti] = first
	}
	root := sets.Find(termRoot[0])
	for _, r := range termRoot[1:] {
		if sets.Find(r) != root {
			return false
		}
	}
	return true
}

// Errors filters the findings to Error severity.
func Errors(vs []Violation) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Severity == Error {
			out = append(out, v)
		}
	}
	return out
}
