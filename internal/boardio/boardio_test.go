package boardio

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sprout"

	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/geom"
)

const minimalDoc = `{
  "name": "mini",
  "outline": [0, 0, 200, 100],
  "stackup": [
    {"name": "L1", "copper_um": 35, "dielectric_below_um": 100},
    {"name": "L2", "copper_um": 35, "dielectric_below_um": 0, "is_plane": true}
  ],
  "rules": {"clearance": 2, "tile_dx": 10, "tile_dy": 10, "via_cost": 5},
  "nets": [{"name": "VDD", "current": 3, "slew_ns": 5, "area_budget": 2500}],
  "groups": [
    {"name": "pmic", "kind": "pmic", "net": "VDD", "layer": 1, "current": 3,
     "pads": [{"rect": [5, 40, 15, 60]}]},
    {"name": "bga", "kind": "bga", "net": "VDD", "layer": 1, "current": 3,
     "pads": [{"circle": [180, 50, 6]}]}
  ],
  "obstacles": [
    {"layer": 1, "shape": [{"rect": [90, 0, 110, 40]}]}
  ],
  "routing_layer": 1
}`

func TestDecodeMinimal(t *testing.T) {
	dec, err := Decode(strings.NewReader(minimalDoc))
	if err != nil {
		t.Fatal(err)
	}
	b := dec.Board
	if b.Name != "mini" || dec.RoutingLayer != 1 {
		t.Fatalf("decoded %q layer %d", b.Name, dec.RoutingLayer)
	}
	if len(b.Nets) != 1 || b.Nets[0].Current != 3 {
		t.Fatalf("nets = %+v", b.Nets)
	}
	if dec.Budgets[0] != 2500 {
		t.Fatalf("budget = %d", dec.Budgets[0])
	}
	if len(b.Groups) != 2 {
		t.Fatalf("groups = %d", len(b.Groups))
	}
	if b.Groups[0].Kind != board.KindPMIC || b.Groups[1].Kind != board.KindBGA {
		t.Fatalf("kinds = %v %v", b.Groups[0].Kind, b.Groups[1].Kind)
	}
	// Circle pad rasterized around (180, 50).
	if !b.Groups[1].Shape().OverlapsRect(geom.R(180, 50, 181, 51)) {
		t.Fatal("circle pad must contain its center")
	}
	if len(b.Obstacle) != 1 || b.Obstacle[0].Net != board.NetNone {
		t.Fatalf("obstacles = %+v", b.Obstacle)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"bad json", `{`},
		{"unknown field", `{"name":"x","bogus":1}`},
		{"short outline", `{"name":"x","outline":[0,0,10],"stackup":[{"name":"L1","copper_um":35,"dielectric_below_um":0}],"rules":{"clearance":0,"tile_dx":1,"tile_dy":1,"via_cost":1},"routing_layer":1}`},
		{"dup net", strings.Replace(minimalDoc, `{"name": "VDD", "current": 3, "slew_ns": 5, "area_budget": 2500}`,
			`{"name": "VDD", "current": 3, "slew_ns": 5},{"name": "VDD", "current": 1, "slew_ns": 5}`, 1)},
		{"bad kind", strings.Replace(minimalDoc, `"kind": "pmic"`, `"kind": "alien"`, 1)},
		{"bad net ref", strings.Replace(minimalDoc, `"net": "VDD", "layer": 1, "current": 3,
     "pads": [{"rect": [5, 40, 15, 60]}]`, `"net": "NOPE", "layer": 1, "current": 3,
     "pads": [{"rect": [5, 40, 15, 60]}]`, 1)},
		{"bad routing layer", strings.Replace(minimalDoc, `"routing_layer": 1`, `"routing_layer": 7`, 1)},
		{"zero tile", strings.Replace(minimalDoc, `"tile_dx": 10`, `"tile_dx": 0`, 1)},
		{"negative tile", strings.Replace(minimalDoc, `"tile_dy": 10`, `"tile_dy": -4`, 1)},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestShapeJSONValidation(t *testing.T) {
	if _, err := (ShapeJSON{}).Region(); err == nil {
		t.Fatal("empty shape must error")
	}
	if _, err := (ShapeJSON{Rect: []int64{1, 2, 3}}).Region(); err == nil {
		t.Fatal("short rect must error")
	}
	if _, err := (ShapeJSON{Circle: []int64{1, 2}}).Region(); err == nil {
		t.Fatal("short circle must error")
	}
	if _, err := (ShapeJSON{Rect: []int64{0, 0, 1, 1}, Circle: []int64{0, 0, 1}}).Region(); err == nil {
		t.Fatal("two primitives must error")
	}
	if _, err := (ShapeJSON{Circle: []int64{0, 0, math.MaxInt64}}).Region(); err == nil {
		t.Fatal("circle beyond maxCircle must error")
	}
	g, err := (ShapeJSON{Poly: [][2]int64{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}).Region()
	if err != nil || g.Area() != 100 {
		t.Fatalf("poly shape: area=%d err=%v", g.Area(), err)
	}
}

// hugePadDoc is a 400-byte document whose one circle pad has radius
// 200,000 on a 10x10 outline. Rasterizing that pad takes 400,000 rows.
const hugePadDoc = `{"name":"dos","outline":[0,0,10,10],
"stackup":[{"name":"L1","copper_um":35,"dielectric_below_um":0}],
"rules":{"clearance":1,"tile_dx":1,"tile_dy":1,"via_cost":1},
"nets":[{"name":"V","current":1,"slew_ns":1}],
"groups":[{"name":"a","kind":"pmic","net":"V","layer":1,"pads":[{"circle":[5,5,200000]}]},
{"name":"b","kind":"bga","net":"V","layer":1,"pads":[{"rect":[8,8,9,9]}]}],
"routing_layer":1}`

// bigOutlineDoc is a small document whose circle pad of radius 250,000
// lies inside a 2,000,000-unit outline, so it passes the outline check
// and is rasterized: 500,000 rows go into one region.
const bigOutlineDoc = `{"name":"big","outline":[0,0,2000000,2000000],
"stackup":[{"name":"L1","copper_um":35,"dielectric_below_um":0}],
"rules":{"clearance":1,"tile_dx":1,"tile_dy":1,"via_cost":1},
"nets":[{"name":"V","current":1,"slew_ns":1}],
"groups":[{"name":"a","kind":"pmic","net":"V","layer":1,"pads":[{"circle":[1000000,1000000,250000]}]},
{"name":"b","kind":"bga","net":"V","layer":1,"pads":[{"rect":[8,8,9,9]}]}],
"routing_layer":1}`

// TestDecodeRejectsHugePadQuickly: a circle or polygon pad that leaves
// the outline is rejected from its box, before it is rasterized.
func TestDecodeRejectsHugePadQuickly(t *testing.T) {
	huge := strings.Replace(hugePadDoc, `{"circle":[5,5,200000]}`, `{"poly":[[5,-200000],[200000,5],[5,200000],[-200000,5]]}`, 1)
	for name, doc := range map[string]string{"circle": hugePadDoc, "poly": huge} {
		start := time.Now()
		_, err := Decode(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), `group "a" pad 0 extends outside the outline`) {
			t.Fatalf("%s: Decode = %v, want the pad rejected as outside the outline", name, err)
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("%s: rejecting the pad took %v", name, d)
		}
	}
}

// TestObstacleRowsKeepAvailableSpace: obstacle circles and polygons are
// rasterized over the outline's rows widened by the clearance only. Shapes
// that overhang the outline on every side, one within the clearance of
// its top edge, leave every available space as the full rasterization
// does, and a disc of radius 200,000 decodes at the cost of the outline.
func TestObstacleRowsKeepAvailableSpace(t *testing.T) {
	shapes := []ShapeJSON{
		{Circle: []int64{0, 50, 30}},
		{Circle: []int64{100, 103, 2}}, // off the board, within clearance 2 of y=100
		{Circle: []int64{190, -5, 40}},
		{Poly: [][2]int64{{60, -30}, {80, 130}, {70, 140}}},
		{Poly: [][2]int64{{120, 90}, {170, 160}, {130, 101}}},
	}
	doc := minimalDoc
	var full []geom.Region
	for _, sh := range shapes {
		shape, err := json.Marshal([]ShapeJSON{sh})
		if err != nil {
			t.Fatal(err)
		}
		doc = strings.Replace(doc, `"obstacles": [`, `"obstacles": [{"layer": 1, "shape": `+string(shape)+`}, `, 1)
		g, err := sh.Region()
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, g)
	}
	dec, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b := dec.Board
	want := geom.RegionFromRect(b.Outline)
	for _, g := range append(full, geom.RegionFromRect(geom.R(90, 0, 110, 40))) {
		want = want.Subtract(g.Bloat(b.Rules.Clearance))
	}
	if got := b.AvailableSpace(0, 1); !got.Equal(want) {
		t.Fatalf("available space %v, want %v from the full rasterizations", got, want)
	}
	if b.Obstacle[0].Shape.Equal(full[len(full)-1]) {
		t.Fatal("the overhanging polygon was rasterized over all its rows")
	}

	start := time.Now()
	dec, err = Decode(strings.NewReader(strings.Replace(minimalDoc,
		`{"rect": [90, 0, 110, 40]}`, `{"circle": [100, 50, 200000]}`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("decoding a disc of radius 200,000 took %v", d)
	}
	if !dec.Board.AvailableSpace(0, 1).Empty() {
		t.Fatal("the disc must cover the board")
	}
}

// TestEncodeKeepsSourceShapes: a decoded document encodes its pads and
// obstacles as their source shapes. The circle pad of radius 250,000 in
// bigOutlineDoc stays one circle, where its 500,000 rasterized rows took
// 39,248,443 bytes as rectangles, and the document decodes back to the
// same pads and obstacles.
func TestEncodeKeepsSourceShapes(t *testing.T) {
	doc := strings.Replace(bigOutlineDoc, `"routing_layer":1}`,
		`"obstacles":[{"layer":1,"shape":[{"circle":[100,1000000,40]},{"rect":[0,0,5,5]}]}],"routing_layer":1}`, 1)
	dec, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, dec); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n > 2048 {
		t.Fatalf("encoded document is %d bytes, want at most 2048", n)
	}
	dec2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec2.Doc.Groups, dec.Doc.Groups) || !reflect.DeepEqual(dec2.Doc.Obstacles, dec.Doc.Obstacles) {
		t.Fatalf("source shapes changed: groups %+v -> %+v, obstacles %+v -> %+v",
			dec.Doc.Groups, dec2.Doc.Groups, dec.Doc.Obstacles, dec2.Doc.Obstacles)
	}
	for i, g := range dec.Board.Groups {
		if !dec2.Board.Groups[i].Shape().Equal(g.Shape()) {
			t.Fatalf("group %s geometry changed", g.Name)
		}
	}
	if !dec2.Board.Obstacle[0].Shape.Equal(dec.Board.Obstacle[0].Shape) {
		t.Fatal("obstacle geometry changed")
	}
}

func TestRoundTripTwoRail(t *testing.T) {
	cs, err := cases.TwoRail()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, caseDecoded(cs)); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b2 := dec.Board
	if b2.Name != cs.Board.Name {
		t.Fatalf("name %q != %q", b2.Name, cs.Board.Name)
	}
	if len(b2.Nets) != len(cs.Board.Nets) || len(b2.Groups) != len(cs.Board.Groups) ||
		len(b2.Obstacle) != len(cs.Board.Obstacle) {
		t.Fatal("round trip changed element counts")
	}
	if dec.RoutingLayer != cs.RoutingLayer {
		t.Fatalf("routing layer %d != %d", dec.RoutingLayer, cs.RoutingLayer)
	}
	// Geometry must survive exactly (regions are canonical rect lists).
	for i, g := range cs.Board.Groups {
		if !b2.Groups[i].Shape().Equal(g.Shape()) {
			t.Fatalf("group %s geometry changed", g.Name)
		}
	}
	// Available space identical on the routing layer.
	for _, net := range cs.Board.Nets {
		a1 := cs.Board.AvailableSpace(net.ID, cs.RoutingLayer)
		a2 := b2.AvailableSpace(net.ID, cs.RoutingLayer)
		if !a1.Equal(a2) {
			t.Fatalf("net %s available space changed after round trip", net.Name)
		}
	}
	// Budgets preserved.
	for id, v := range cs.Budgets {
		if dec.Budgets[id] != v {
			t.Fatalf("budget for net %d: %d != %d", id, dec.Budgets[id], v)
		}
	}
}

// caseDecoded is a case study's routing setup as a document carries it.
func caseDecoded(cs *cases.CaseStudy) *Decoded {
	return &Decoded{Board: cs.Board, RoutingLayer: cs.RoutingLayer, Budgets: cs.Budgets, Config: cs.Config}
}

// TestRoundTripRoutesLikeTheCase dumps each case study as a document and
// routes the decoded board: the document must carry the whole routing
// setup (tile pitch and router knobs included), so every rail and its
// manual baseline come out exactly as on the case itself.
func TestRoundTripRoutesLikeTheCase(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping four full board routes")
	}
	t4 := cases.Table4()
	for _, tc := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"sixrail", cases.SixRail},
		{"threerail-row0", func() (*cases.CaseStudy, error) { return cases.ThreeRail(t4[0]) }},
		{"threerail-row8", func() (*cases.CaseStudy, error) { return cases.ThreeRail(t4[8]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			want := caseDecoded(cs)
			var buf bytes.Buffer
			if err := Encode(&buf, want); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Config != want.Config || got.RoutingLayer != want.RoutingLayer ||
				!reflect.DeepEqual(got.Budgets, want.Budgets) {
				t.Fatalf("decoded setup config=%+v layer=%d budgets=%v, want config=%+v layer=%d budgets=%v",
					got.Config, got.RoutingLayer, got.Budgets, want.Config, want.RoutingLayer, want.Budgets)
			}
			route := func(d *Decoded) *sprout.BoardResult {
				res, err := sprout.RouteBoard(d.Board, sprout.RouteOptions{
					Layer: d.RoutingLayer, Budgets: d.Budgets, Config: d.Config, WithManual: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := route(want), route(got)
			if len(a.Rails) != len(b.Rails) {
				t.Fatalf("rails %d != %d", len(b.Rails), len(a.Rails))
			}
			sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
			for i, ra := range a.Rails {
				rb := b.Rails[i]
				if ra.Route == nil || rb.Route == nil || ra.Extract == nil || rb.Extract == nil ||
					ra.ManualExtract == nil || rb.ManualExtract == nil {
					t.Fatalf("rail %s did not route and extract on both boards", ra.Name)
				}
				if !ra.Route.Shape.Equal(rb.Route.Shape) || !slices.Equal(ra.Route.Members, rb.Route.Members) {
					t.Errorf("rail %s: decoded board routes different copper", ra.Name)
				}
				if !sameBits(ra.Extract.ResistanceOhms, rb.Extract.ResistanceOhms) ||
					!sameBits(ra.Extract.InductancePH, rb.Extract.InductancePH) {
					t.Errorf("rail %s: R/L %g/%g on the document, %g/%g on the case", ra.Name,
						rb.Extract.ResistanceOhms, rb.Extract.InductancePH, ra.Extract.ResistanceOhms, ra.Extract.InductancePH)
				}
				if !sameBits(ra.ManualExtract.ResistanceOhms, rb.ManualExtract.ResistanceOhms) ||
					!sameBits(ra.ManualExtract.InductancePH, rb.ManualExtract.InductancePH) {
					t.Errorf("rail %s: manual R/L differ after the round trip", ra.Name)
				}
			}
		})
	}
}

func TestDecodeExampleDocument(t *testing.T) {
	f, err := os.Open("testdata/example_board.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Board.Name != "example-two-rail" || dec.RoutingLayer != 3 {
		t.Fatalf("decoded %q layer %d", dec.Board.Name, dec.RoutingLayer)
	}
	if len(dec.Board.Nets) != 2 || len(dec.Board.Groups) != 5 || len(dec.Board.Obstacle) != 2 {
		t.Fatalf("counts: nets=%d groups=%d obstacles=%d",
			len(dec.Board.Nets), len(dec.Board.Groups), len(dec.Board.Obstacle))
	}
	if dec.Config.GrowNodes != 12 || dec.Config.ReheatDilations != 1 || dec.Config.DX != 5 {
		t.Fatalf("router config not applied: %+v", dec.Config)
	}
	if dec.Budgets[0] != 6500 || dec.Budgets[1] != 3000 {
		t.Fatalf("budgets = %v", dec.Budgets)
	}
	// The example must actually route end to end.
	res, err := sprout.RouteBoard(dec.Board, sprout.RouteOptions{
		Layer:   dec.RoutingLayer,
		Budgets: dec.Budgets,
		Config:  dec.Config,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != 2 {
		t.Fatalf("rails = %d", len(res.Rails))
	}
	if vs := sprout.Audit(res, sprout.DRCLimits{}); len(vs) != 0 {
		t.Fatalf("example board must pass DRC: %v", vs)
	}
}
