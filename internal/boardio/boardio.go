// Package boardio serializes Board definitions to and from a JSON
// interchange format, so boards can be authored by hand or by other tools
// and routed with the sprout CLI. Geometry accepts rectangles, circles and
// polygons; non-rectilinear shapes are snapped to the manufacturing grid on
// load, exactly as the geometry substrate documents.
package boardio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sprout/internal/board"
	"sprout/internal/geom"
	"sprout/internal/route"
)

// ShapeJSON is one geometric primitive. Exactly one field must be set.
type ShapeJSON struct {
	// Rect is [x0, y0, x1, y1].
	Rect []int64 `json:"rect,omitempty"`
	// Circle is [cx, cy, r].
	Circle []int64 `json:"circle,omitempty"`
	// Poly is a vertex list [[x, y], ...].
	Poly [][2]int64 `json:"poly,omitempty"`
}

// maxCircle bounds a circle's centre coordinates and radius, so that its
// box (centre ± radius) cannot overflow.
const maxCircle = 1 << 61

// Region converts the shape to a Region, rasterizing at pitch 1.
func (s ShapeJSON) Region() (geom.Region, error) {
	return s.regionRows(math.MinInt64, math.MaxInt64)
}

// regionRows is Region with circles and polygons rasterized over the rows
// y0 <= y < y1 only; a rect is kept whole.
func (s ShapeJSON) regionRows(y0, y1 int64) (geom.Region, error) {
	if err := s.check(); err != nil {
		return geom.Region{}, err
	}
	switch {
	case len(s.Rect) > 0:
		return geom.RegionFromRect(geom.R(s.Rect[0], s.Rect[1], s.Rect[2], s.Rect[3])), nil
	case len(s.Circle) > 0:
		return geom.CircleRows(geom.Pt(s.Circle[0], s.Circle[1]), s.Circle[2], 1, y0, y1), nil
	default:
		return s.polygon().RasterizeRows(1, y0, y1)
	}
}

// check rejects a shape that sets other than one primitive, a rect or
// circle of the wrong arity, and a circle beyond maxCircle.
func (s ShapeJSON) check() error {
	set := 0
	if len(s.Rect) > 0 {
		set++
	}
	if len(s.Circle) > 0 {
		set++
	}
	if len(s.Poly) > 0 {
		set++
	}
	if set != 1 {
		return fmt.Errorf("boardio: shape must set exactly one of rect, circle, poly")
	}
	switch {
	case len(s.Rect) > 0 && len(s.Rect) != 4:
		return fmt.Errorf("boardio: rect needs 4 numbers, got %d", len(s.Rect))
	case len(s.Circle) > 0 && len(s.Circle) != 3:
		return fmt.Errorf("boardio: circle needs 3 numbers, got %d", len(s.Circle))
	case len(s.Circle) > 0:
		for _, v := range s.Circle {
			if v < -maxCircle || v > maxCircle {
				return fmt.Errorf("boardio: circle %v beyond ±%d", s.Circle, int64(maxCircle))
			}
		}
	}
	return nil
}

// polygon returns the shape's vertex ring.
func (s ShapeJSON) polygon() geom.Polygon {
	pts := make([]geom.Point, len(s.Poly))
	for i, p := range s.Poly {
		pts[i] = geom.Pt(p[0], p[1])
	}
	return geom.Polygon{V: pts}
}

// rasterBox returns a box that holds a circle's or polygon's
// rasterization without rasterizing it: the circle's centre ± radius, the
// polygon's vertex box. ok is false for a rect, for a malformed shape and
// for a box of no area, whose shape rasterizes empty.
func (s ShapeJSON) rasterBox() (box geom.Rect, ok bool) {
	switch {
	case s.check() != nil:
	case len(s.Circle) > 0:
		box = geom.RectAround(geom.Pt(s.Circle[0], s.Circle[1]), s.Circle[2])
	case len(s.Poly) > 0:
		box = s.polygon().Bounds()
	}
	return box, !box.Empty()
}

// LayerJSON mirrors board.Layer.
type LayerJSON struct {
	Name              string  `json:"name"`
	CopperUM          float64 `json:"copper_um"`
	DielectricBelowUM float64 `json:"dielectric_below_um"`
	IsPlane           bool    `json:"is_plane,omitempty"`
}

// RulesJSON mirrors board.DesignRules, plus the router's tile pitch:
// tile_dx and tile_dy set route.Config's DX and DY (paper Alg. 1 Δx, Δy).
type RulesJSON struct {
	Clearance int64   `json:"clearance"`
	DX        int64   `json:"tile_dx"`
	DY        int64   `json:"tile_dy"`
	ViaCost   float64 `json:"via_cost"`
}

// NetJSON mirrors board.Net; budgets are carried alongside for the CLI.
type NetJSON struct {
	Name       string  `json:"name"`
	Current    float64 `json:"current"`
	SlewNS     float64 `json:"slew_ns"`
	AreaBudget int64   `json:"area_budget,omitempty"`
}

// GroupJSON mirrors board.TerminalGroup with the net referenced by name.
type GroupJSON struct {
	Name    string      `json:"name"`
	Kind    string      `json:"kind"` // pmic, bga, decap, via
	Net     string      `json:"net"`
	Layer   int         `json:"layer"`
	Current float64     `json:"current"`
	Pads    []ShapeJSON `json:"pads"`
}

// ObstacleJSON mirrors board.Obstacle; empty net means keepout.
type ObstacleJSON struct {
	Net   string      `json:"net,omitempty"`
	Layer int         `json:"layer"`
	Shape []ShapeJSON `json:"shape"`
}

// RouterJSON carries optional SPROUT pipeline tuning (see route.Config).
type RouterJSON struct {
	GrowNodes       int `json:"grow_nodes,omitempty"`
	RefineNodes     int `json:"refine_nodes,omitempty"`
	RefineIters     int `json:"refine_iters,omitempty"`
	ReheatDilations int `json:"reheat_dilations,omitempty"`
}

// BoardJSON is the interchange document.
type BoardJSON struct {
	Name      string         `json:"name"`
	Outline   []int64        `json:"outline"` // [x0, y0, x1, y1]
	Stackup   []LayerJSON    `json:"stackup"`
	Rules     RulesJSON      `json:"rules"`
	Nets      []NetJSON      `json:"nets"`
	Groups    []GroupJSON    `json:"groups"`
	Obstacles []ObstacleJSON `json:"obstacles,omitempty"`
	// RoutingLayer is the default layer the CLI routes on.
	RoutingLayer int `json:"routing_layer"`
	// Router optionally tunes the pipeline.
	Router *RouterJSON `json:"router,omitempty"`
}

var kindNames = map[string]board.TerminalKind{
	"pmic":  board.KindPMIC,
	"bga":   board.KindBGA,
	"decap": board.KindDecap,
	"via":   board.KindVia,
}

func kindName(k board.TerminalKind) string {
	for name, v := range kindNames {
		if v == k {
			return name
		}
	}
	return "via"
}

// Decoded is the result of loading a board document.
type Decoded struct {
	Board        *board.Board
	RoutingLayer int
	// Budgets holds per-net area budgets from the document.
	Budgets map[board.NetID]int64
	// Config is the router tuning: the tile pitch from rules.tile_dx and
	// rules.tile_dy plus the optional "router" section of the document.
	Config route.Config
	// Doc is the parsed source document, retained so callers can
	// re-serialize the submission in canonical form (persistence, content
	// hashing) and Encode can write each pad and obstacle as its source
	// shape. Nil when the Decoded was built directly from a Board.
	Doc *BoardJSON
}

// Decode reads a BoardJSON document and builds the Board.
func Decode(r io.Reader) (*Decoded, error) {
	var doc BoardJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("boardio: %w", err)
	}
	return FromJSON(&doc)
}

// Canonical re-encodes the parsed document deterministically: one JSON
// object with the struct field order of BoardJSON, no insignificant
// whitespace. Two submissions that differ only in key order, whitespace
// or number formatting canonicalize to the same bytes; element order
// (nets, groups, obstacles) is preserved because it is semantically
// meaningful — net order is the routing order. The canonical form
// round-trips through Decode, so it doubles as the persisted shape of a
// submission.
func (doc *BoardJSON) Canonical() ([]byte, error) {
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("boardio: canonicalize: %w", err)
	}
	return b, nil
}

// FromJSON builds a Board from a parsed document.
func FromJSON(doc *BoardJSON) (*Decoded, error) {
	if len(doc.Outline) != 4 {
		return nil, fmt.Errorf("boardio: outline needs 4 numbers, got %d", len(doc.Outline))
	}
	layers := make([]board.Layer, len(doc.Stackup))
	for i, l := range doc.Stackup {
		layers[i] = board.Layer{
			Name: l.Name, CopperUM: l.CopperUM,
			DielectricBelowUM: l.DielectricBelowUM, IsPlane: l.IsPlane,
		}
	}
	if doc.Rules.DX < 1 || doc.Rules.DY < 1 {
		return nil, fmt.Errorf("boardio: tile size %dx%d must be >= 1", doc.Rules.DX, doc.Rules.DY)
	}
	rules := board.DesignRules{Clearance: doc.Rules.Clearance, ViaCost: doc.Rules.ViaCost}
	b, err := board.New(doc.Name,
		geom.R(doc.Outline[0], doc.Outline[1], doc.Outline[2], doc.Outline[3]),
		board.Stackup{Layers: layers}, rules)
	if err != nil {
		return nil, fmt.Errorf("boardio: %w", err)
	}
	netOf := map[string]board.NetID{}
	budgets := map[board.NetID]int64{}
	for _, n := range doc.Nets {
		if n.Name == "" {
			return nil, fmt.Errorf("boardio: net with empty name")
		}
		if _, dup := netOf[n.Name]; dup {
			return nil, fmt.Errorf("boardio: duplicate net %q", n.Name)
		}
		id := b.AddNet(n.Name, n.Current, n.SlewNS)
		netOf[n.Name] = id
		if n.AreaBudget > 0 {
			budgets[id] = n.AreaBudget
		}
	}
	for _, g := range doc.Groups {
		kind, ok := kindNames[g.Kind]
		if !ok {
			return nil, fmt.Errorf("boardio: group %q has unknown kind %q", g.Name, g.Kind)
		}
		net, ok := netOf[g.Net]
		if !ok {
			return nil, fmt.Errorf("boardio: group %q references unknown net %q", g.Name, g.Net)
		}
		pads := make([]geom.Region, len(g.Pads))
		for i, s := range g.Pads {
			// A circle or polygon pad whose box leaves the outline stands
			// in as that box, which AddGroup rejects as it would the
			// rasterized pad, so no pad costs more rows than the outline.
			if box, ok := s.rasterBox(); ok && box.Intersect(b.Outline) != box {
				pads[i] = geom.RegionFromRect(box)
				continue
			}
			pads[i], err = s.Region()
			if err != nil {
				return nil, fmt.Errorf("boardio: group %q pad %d: %w", g.Name, i, err)
			}
		}
		if err := b.AddGroup(board.TerminalGroup{
			Name: g.Name, Kind: kind, Net: net, Layer: g.Layer,
			Pads: pads, Current: g.Current,
		}); err != nil {
			return nil, fmt.Errorf("boardio: %w", err)
		}
	}
	for i, o := range doc.Obstacles {
		net := board.NetNone
		if o.Net != "" {
			id, ok := netOf[o.Net]
			if !ok {
				return nil, fmt.Errorf("boardio: obstacle %d references unknown net %q", i, o.Net)
			}
			net = id
		}
		// Obstacle circles and polygons are rasterized over the outline's
		// rows widened by the clearance only: rows beyond cannot reach the
		// available space once bloated, and a large shape costs no more
		// than the outline.
		shape := geom.EmptyRegion()
		for j, s := range o.Shape {
			r, err := s.regionRows(b.Outline.Y0-rules.Clearance, b.Outline.Y1+rules.Clearance)
			if err != nil {
				return nil, fmt.Errorf("boardio: obstacle %d shape %d: %w", i, j, err)
			}
			shape = shape.Union(r)
		}
		if err := b.AddObstacle(net, o.Layer, shape); err != nil {
			return nil, fmt.Errorf("boardio: %w", err)
		}
	}
	if doc.RoutingLayer < 1 || doc.RoutingLayer > b.Stackup.NumLayers() {
		return nil, fmt.Errorf("boardio: routing_layer %d out of range [1,%d]",
			doc.RoutingLayer, b.Stackup.NumLayers())
	}
	cfg := route.Config{DX: doc.Rules.DX, DY: doc.Rules.DY}
	if doc.Router != nil {
		cfg.GrowNodes = doc.Router.GrowNodes
		cfg.RefineNodes = doc.Router.RefineNodes
		cfg.RefineIters = doc.Router.RefineIters
		cfg.ReheatDilations = doc.Router.ReheatDilations
	}
	return &Decoded{Board: b, RoutingLayer: doc.RoutingLayer, Budgets: budgets, Config: cfg, Doc: doc}, nil
}

// Encode writes d as a BoardJSON document that Decode turns back into the
// same board, routing layer, budgets and router config. The tile pitch is
// written with route.Config's defaults applied. Pads and obstacles are
// written as their source shapes when d was decoded from a document, so a
// circle stays one circle, and as canonical rectangles when d was built
// from a Board.
func Encode(w io.Writer, d *Decoded) error {
	b, cfg := d.Board, d.Config
	pitch := cfg.WithDefaults()
	doc := BoardJSON{
		Name:    b.Name,
		Outline: []int64{b.Outline.X0, b.Outline.Y0, b.Outline.X1, b.Outline.Y1},
		Rules: RulesJSON{
			Clearance: b.Rules.Clearance,
			DX:        pitch.DX, DY: pitch.DY,
			ViaCost: b.Rules.ViaCost,
		},
		RoutingLayer: d.RoutingLayer,
	}
	router := RouterJSON{
		GrowNodes: cfg.GrowNodes, RefineNodes: cfg.RefineNodes,
		RefineIters: cfg.RefineIters, ReheatDilations: cfg.ReheatDilations,
	}
	if router != (RouterJSON{}) {
		doc.Router = &router
	}
	for _, l := range b.Stackup.Layers {
		doc.Stackup = append(doc.Stackup, LayerJSON{
			Name: l.Name, CopperUM: l.CopperUM,
			DielectricBelowUM: l.DielectricBelowUM, IsPlane: l.IsPlane,
		})
	}
	for _, n := range b.Nets {
		doc.Nets = append(doc.Nets, NetJSON{
			Name: n.Name, Current: n.Current, SlewNS: n.SlewTimeNS,
			AreaBudget: d.Budgets[n.ID],
		})
	}
	for i, g := range b.Groups {
		net, err := b.Net(g.Net)
		if err != nil {
			return fmt.Errorf("boardio: %w", err)
		}
		gj := GroupJSON{
			Name: g.Name, Kind: kindName(g.Kind), Net: net.Name,
			Layer: g.Layer, Current: g.Current,
		}
		if d.Doc != nil {
			gj.Pads = d.Doc.Groups[i].Pads
		} else {
			for _, p := range g.Pads {
				gj.Pads = append(gj.Pads, regionShapes(p)...)
			}
		}
		doc.Groups = append(doc.Groups, gj)
	}
	for i, o := range b.Obstacle {
		oj := ObstacleJSON{Layer: o.Layer}
		if d.Doc != nil {
			oj.Shape = d.Doc.Obstacles[i].Shape
		} else {
			oj.Shape = regionShapes(o.Shape)
		}
		if o.Net != board.NetNone {
			net, err := b.Net(o.Net)
			if err != nil {
				return fmt.Errorf("boardio: %w", err)
			}
			oj.Net = net.Name
		}
		doc.Obstacles = append(doc.Obstacles, oj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("boardio: %w", err)
	}
	return nil
}

func regionShapes(g geom.Region) []ShapeJSON {
	var out []ShapeJSON
	for _, r := range g.Rects() {
		out = append(out, ShapeJSON{Rect: []int64{r.X0, r.Y0, r.X1, r.Y1}})
	}
	return out
}
