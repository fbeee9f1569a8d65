// Package board models the printed-circuit-board input to SPROUT: the
// layer stackup, nets, terminal groups (PMIC outputs, BGA ball clusters,
// decoupling capacitor pads), blockages, and the design rules that define
// clearance buffers. It computes the available routing space of paper
// Eq. 1: A_n = U \ ∪_{n_j≠n} b_j, where b_j is the buffered geometry of
// every other net.
//
// Geometry lives on an integer manufacturing grid (1 unit = 0.1 mm in the
// case studies). Electrical layer properties (copper thickness, dielectric
// heights) feed the extraction models.
package board

import (
	"fmt"

	"sprout/internal/geom"
)

// NetID identifies a power net. NetNone marks keepouts that block all nets.
type NetID int

// NetNone marks geometry that belongs to no net (blocks every net).
const NetNone NetID = -1

// Net is a power rail.
type Net struct {
	ID   NetID
	Name string
	// Current is the expected load current drawn by this rail in amperes;
	// it scales the node-current injections (paper §II-D) and the transient
	// load in the voltage-drop analysis.
	Current float64
	// SlewTimeNS is the load current transition time in nanoseconds, used
	// by the transient voltage-drop model (Fig. 12c).
	SlewTimeNS float64
}

// CopperResistivityOhmUM is the resistivity of copper in ohm·µm.
const CopperResistivityOhmUM = 0.0172

// Layer describes one metal layer of the stackup. Layers are indexed
// 1..L from the top.
type Layer struct {
	Name string
	// CopperUM is the copper thickness in µm (35 µm for 1 oz copper).
	CopperUM float64
	// DielectricBelowUM is the dielectric height between this layer and
	// the next layer down, in µm.
	DielectricBelowUM float64
	// IsPlane marks a solid reference plane (ground); planes are return
	// paths for the inductance model and are not routable.
	IsPlane bool
}

// SheetResistance returns the layer's sheet resistance in ohms per square.
func (l Layer) SheetResistance() float64 {
	if l.CopperUM <= 0 {
		return 0
	}
	return CopperResistivityOhmUM / l.CopperUM
}

// Stackup is the ordered list of metal layers, top first.
type Stackup struct {
	Layers []Layer
}

// NumLayers returns the layer count.
func (s Stackup) NumLayers() int { return len(s.Layers) }

// Valid reports an error when the stackup is unusable.
func (s Stackup) Valid() error {
	if len(s.Layers) == 0 {
		return fmt.Errorf("board: stackup has no layers")
	}
	for i, l := range s.Layers {
		if l.CopperUM < 0 || l.DielectricBelowUM < 0 {
			return fmt.Errorf("board: layer %d has negative thickness", i+1)
		}
	}
	return nil
}

// Layer returns the 1-indexed layer. It panics on out-of-range indices:
// layer indices are program logic established at board construction.
func (s Stackup) Layer(idx int) Layer {
	if idx < 1 || idx > len(s.Layers) {
		panic(fmt.Sprintf("board: layer %d out of range [1,%d]", idx, len(s.Layers)))
	}
	return s.Layers[idx-1]
}

// DistanceToPlaneUM returns the dielectric distance in µm from the given
// layer to the nearest reference plane, used by the plane-pair inductance
// model. When the stackup has no plane it returns the total board height.
func (s Stackup) DistanceToPlaneUM(idx int) float64 {
	best := -1.0
	// Walk down.
	d := 0.0
	for i := idx; i < len(s.Layers); i++ {
		d += s.Layers[i-1].DielectricBelowUM
		if s.Layers[i].IsPlane {
			best = d
			break
		}
	}
	// Walk up.
	d = 0.0
	for i := idx - 1; i >= 1; i-- {
		d += s.Layers[i-1].DielectricBelowUM
		if s.Layers[i-1].IsPlane {
			if best < 0 || d < best {
				best = d
			}
			break
		}
	}
	if best < 0 {
		total := 0.0
		for _, l := range s.Layers {
			total += l.DielectricBelowUM
		}
		if total == 0 {
			total = 100
		}
		return total
	}
	return best
}

// TerminalKind classifies what a terminal group physically is.
type TerminalKind int

// Terminal kinds.
const (
	KindPMIC TerminalKind = iota
	KindBGA
	KindDecap
	KindVia
)

// String implements fmt.Stringer.
func (k TerminalKind) String() string {
	switch k {
	case KindPMIC:
		return "PMIC"
	case KindBGA:
		return "BGA"
	case KindDecap:
		return "Decap"
	case KindVia:
		return "Via"
	}
	return fmt.Sprintf("TerminalKind(%d)", int(k))
}

// TerminalGroup is an electrically common cluster of pads on one layer —
// e.g. the group of BGA vias of one rail, the PMIC inductor output via, or
// a decap pad. SPROUT routes between terminal groups; within a group the
// pads are already stitched (via barrels, upper-layer lands).
type TerminalGroup struct {
	Name  string
	Kind  TerminalKind
	Net   NetID
	Layer int
	Pads  []geom.Region
	// Current is the expected current carried to or from this group in
	// amperes; pairwise injections are weighted by it (paper §II-D: pairs
	// with large current, e.g. PMIC↔BGA, are injected with larger current).
	Current float64
}

// Shape returns the union of the group's pads, built in one pass over
// their rectangles.
func (t TerminalGroup) Shape() geom.Region {
	var rects []geom.Rect
	for _, p := range t.Pads {
		rects = p.AppendRects(rects)
	}
	return geom.RegionFromRects(rects)
}

// Obstacle is net-owned or keepout geometry on a layer. Other nets must
// stay a clearance away from it (paper Fig. 4 buffers).
type Obstacle struct {
	Net   NetID
	Layer int
	Shape geom.Region
}

// DesignRules capture the manufacturing constraints SPROUT honors. The
// Alg. 1 tile pitch is a router setting, not a rule: see route.Config.
type DesignRules struct {
	// Clearance is the buffer half-width in grid units between geometry of
	// different nets (paper Fig. 4).
	Clearance int64
	// ViaCost is the extra path cost of crossing one layer through a via,
	// relative to traversing one tile (paper Appendix: vertical edges are
	// assigned a higher cost).
	ViaCost float64
}

// Valid reports an error when the rules are unusable.
func (r DesignRules) Valid() error {
	if r.Clearance < 0 {
		return fmt.Errorf("board: negative clearance %d", r.Clearance)
	}
	if r.ViaCost < 0 {
		return fmt.Errorf("board: negative via cost %g", r.ViaCost)
	}
	return nil
}

// Board is the full routing problem description.
type Board struct {
	Name     string
	Outline  geom.Rect
	Stackup  Stackup
	Rules    DesignRules
	Nets     []Net
	Groups   []TerminalGroup
	Obstacle []Obstacle
}

// New validates and returns a Board.
func New(name string, outline geom.Rect, stackup Stackup, rules DesignRules) (*Board, error) {
	if outline.Empty() {
		return nil, fmt.Errorf("board: empty outline")
	}
	if err := stackup.Valid(); err != nil {
		return nil, err
	}
	if err := rules.Valid(); err != nil {
		return nil, err
	}
	return &Board{Name: name, Outline: outline, Stackup: stackup, Rules: rules}, nil
}

// AddNet registers a rail and returns its id.
func (b *Board) AddNet(name string, current, slewNS float64) NetID {
	id := NetID(len(b.Nets))
	b.Nets = append(b.Nets, Net{ID: id, Name: name, Current: current, SlewTimeNS: slewNS})
	return id
}

// Net returns the net record for id.
func (b *Board) Net(id NetID) (Net, error) {
	if id < 0 || int(id) >= len(b.Nets) {
		return Net{}, fmt.Errorf("board: net %d not defined", id)
	}
	return b.Nets[id], nil
}

// AddGroup registers a terminal group after validation.
func (b *Board) AddGroup(g TerminalGroup) error {
	if _, err := b.Net(g.Net); err != nil {
		return err
	}
	if g.Layer < 1 || g.Layer > b.Stackup.NumLayers() {
		return fmt.Errorf("board: group %q layer %d out of range", g.Name, g.Layer)
	}
	if len(g.Pads) == 0 {
		return fmt.Errorf("board: group %q has no pads", g.Name)
	}
	for i, p := range g.Pads {
		if p.Empty() {
			return fmt.Errorf("board: group %q pad %d is empty", g.Name, i)
		}
		if !p.Subtract(geom.RegionFromRect(b.Outline)).Empty() {
			return fmt.Errorf("board: group %q pad %d extends outside the outline", g.Name, i)
		}
	}
	if g.Current < 0 {
		return fmt.Errorf("board: group %q has negative current", g.Name)
	}
	b.Groups = append(b.Groups, g)
	return nil
}

// AddObstacle registers net-owned or keepout geometry.
func (b *Board) AddObstacle(net NetID, layer int, shape geom.Region) error {
	if net != NetNone {
		if _, err := b.Net(net); err != nil {
			return err
		}
	}
	if layer < 1 || layer > b.Stackup.NumLayers() {
		return fmt.Errorf("board: obstacle layer %d out of range", layer)
	}
	if shape.Empty() {
		return fmt.Errorf("board: empty obstacle shape")
	}
	b.Obstacle = append(b.Obstacle, Obstacle{Net: net, Layer: layer, Shape: shape})
	return nil
}

// GroupsOn returns the terminal groups of the given net on the given
// layer, in registration order.
func (b *Board) GroupsOn(net NetID, layer int) []TerminalGroup {
	var out []TerminalGroup
	for _, g := range b.Groups {
		if g.Net == net && g.Layer == layer {
			out = append(out, g)
		}
	}
	return out
}

// AvailableSpace computes the routable region of `net` on `layer` per
// paper Eq. 1: the outline minus the clearance-buffered geometry of every
// other net (terminal pads and obstacles), minus keepouts. Same-net
// geometry is never removed — a net may legally cross its own buffers
// (paper Fig. 4 caption). The buffers are gathered as rectangles and
// subtracted in one pass; canonical form makes the result identical to
// subtracting them one shape at a time.
func (b *Board) AvailableSpace(net NetID, layer int) geom.Region {
	c := b.Rules.Clearance
	var blocked []geom.Rect
	bloat := func(shape geom.Region) {
		n := len(blocked)
		blocked = shape.AppendRects(blocked)
		for i := n; i < len(blocked); i++ {
			blocked[i] = blocked[i].Expand(c)
		}
	}
	for _, g := range b.Groups {
		if g.Layer != layer || g.Net == net {
			continue
		}
		for _, p := range g.Pads {
			bloat(p)
		}
	}
	for _, o := range b.Obstacle {
		if o.Layer != layer || (o.Net == net && o.Net != NetNone) {
			continue
		}
		bloat(o.Shape)
	}
	return geom.RegionFromRect(b.Outline).Subtract(geom.RegionFromRects(blocked))
}

// RoutableLayers returns the 1-indexed non-plane layers in order.
func (b *Board) RoutableLayers() []int {
	var out []int
	for i := 1; i <= b.Stackup.NumLayers(); i++ {
		if !b.Stackup.Layer(i).IsPlane {
			out = append(out, i)
		}
	}
	return out
}
