package manual

import (
	"fmt"
	"math/rand"
	"testing"

	"sprout/internal/cases"
	"sprout/internal/geom"
	"sprout/internal/route"
)

// connectsAllOracle is the connectivity check the width search made before
// its union-find: one of the shape's Components overlaps every terminal.
func connectsAllOracle(shape geom.Region, terms []route.Terminal) bool {
	for _, comp := range shape.Components() {
		all := true
		for _, t := range terms {
			if !comp.Overlaps(t.Shape) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// caseRail is one rail of a case board on the unclaimed board, as the
// baseline routes the first rail of an order.
type caseRail struct {
	name   string
	avail  geom.Region
	terms  []route.Terminal
	tile   int64
	target int64
}

// caseRails lists every rail of the two-rail, six-rail and first and last
// Table IV three-rail boards.
func caseRails(t *testing.T) []caseRail {
	t.Helper()
	var all []caseRail
	add := func(name string, cs *cases.CaseStudy, err error) {
		if err != nil {
			t.Fatal(err)
		}
		cfg := cs.Config.WithDefaults()
		for _, net := range cs.Board.Nets {
			var terms []route.Terminal
			for _, g := range cs.Board.GroupsOn(net.ID, cs.RoutingLayer) {
				terms = append(terms, route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current})
			}
			if len(terms) < 2 {
				continue
			}
			target := cfg.AreaMax
			if b := cs.Budgets[net.ID]; b > 0 {
				target = b
			}
			all = append(all, caseRail{
				name:   name + "/" + net.Name,
				avail:  cs.Board.AvailableSpace(net.ID, cs.RoutingLayer),
				terms:  terms,
				tile:   cfg.DX,
				target: target,
			})
		}
	}
	cs, err := cases.TwoRail()
	add("tworail", cs, err)
	cs, err = cases.SixRail()
	add("sixrail", cs, err)
	rows := cases.Table4()
	for _, k := range []int{0, len(rows) - 1} {
		cs, err = cases.ThreeRail(rows[k])
		add(fmt.Sprintf("threerail/row%d", k), cs, err)
	}
	return all
}

// TestConnectsMatchesComponentsOracle checks the union-find connectivity
// test of the width search against the Components-based oracle: on the
// corridor shape of every width a case rail's search can probe, and on
// random shapes and terminals. One linkScratch serves every call, as it
// serves every round of one search.
func TestConnectsMatchesComponentsOracle(t *testing.T) {
	var link linkScratch
	var c corridorRects
	probes, connected := 0, 0
	for _, cr := range caseRails(t) {
		tg, err := route.BuildTileGraph(cr.avail, cr.terms, cr.tile, cr.tile)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := backbones(tg)
		if err != nil {
			t.Fatal(err)
		}
		pads := padRegion(cr.terms)
		b := cr.avail.Bounds()
		// The search probes widths in [1, W+H].
		for w := int64(1); w <= b.W()+b.H(); w++ {
			shape := c.draw(lines, w).Intersect(cr.avail).Union(pads)
			got, want := link.connects(shape, cr.terms), connectsAllOracle(shape, cr.terms)
			if got != want {
				t.Fatalf("%s width %d: connects = %v, oracle %v", cr.name, w, got, want)
			}
			probes++
			if got {
				connected++
			}
		}
	}
	t.Logf("%d of %d case probes connected", connected, probes)
	if connected == 0 || connected == probes {
		t.Fatalf("%d of %d case probes connected; want both outcomes", connected, probes)
	}

	r := rand.New(rand.NewSource(38))
	connected = 0
	for i := 0; i < 3000; i++ {
		var add, cut []geom.Rect
		for k := 1 + r.Intn(8); k > 0; k-- {
			x, y := int64(r.Intn(50)), int64(r.Intn(50))
			add = append(add, geom.R(x, y, x+1+int64(r.Intn(25)), y+1+int64(r.Intn(25))))
		}
		for k := r.Intn(10); k > 0; k-- {
			x, y := int64(r.Intn(60)-5), int64(r.Intn(60)-5)
			cut = append(cut, geom.R(x, y, x+1+int64(r.Intn(3)), y+1+int64(r.Intn(40))))
		}
		shape := geom.RegionFromRects(add).Subtract(geom.RegionFromRects(cut))
		// Each terminal lands at a point of one of the drawn rectangles,
		// so many shapes reach all of them.
		terms := make([]route.Terminal, 1+r.Intn(4))
		for k := range terms {
			a := add[r.Intn(len(add))]
			x, y := a.X0+r.Int63n(a.W()), a.Y0+r.Int63n(a.H())
			terms[k].Shape = geom.RegionFromRect(geom.R(x, y, x+1+int64(r.Intn(6)), y+1+int64(r.Intn(6))))
		}
		got, want := link.connects(shape, terms), connectsAllOracle(shape, terms)
		if got != want {
			t.Fatalf("case %d: connects(%v, %v) = %v, oracle %v", i, shape, terms, got, want)
		}
		if got {
			connected++
		}
	}
	t.Logf("%d of 3000 random shapes connected their terminals", connected)
	if connected < 300 {
		t.Fatalf("only %d of 3000 random shapes connected their terminals", connected)
	}
}

// TestWidthIsDrawnWidth checks on every case rail that Result.Width is the
// width of the copper the baseline draws: the routed shape is the
// corridors drawn at Width, clipped and joined with the pads, and every
// corridor rectangle is Width across.
func TestWidthIsDrawnWidth(t *testing.T) {
	var c corridorRects
	for _, cr := range caseRails(t) {
		res, err := Route(cr.avail, cr.terms, cr.target, cr.tile)
		if err != nil {
			t.Fatalf("%s: %v", cr.name, err)
		}
		tg, err := route.BuildTileGraph(cr.avail, cr.terms, cr.tile, cr.tile)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := backbones(tg)
		if err != nil {
			t.Fatal(err)
		}
		shape := c.draw(lines, res.Width).Intersect(cr.avail).Union(padRegion(cr.terms))
		if !shape.Equal(res.Shape) {
			t.Fatalf("%s: the corridors drawn at Width %d are not the routed shape", cr.name, res.Width)
		}
		for _, r := range c.rects {
			if got := min(r.W(), r.H()); got != res.Width {
				t.Fatalf("%s: corridor %v is %d wide, Result.Width is %d", cr.name, r, got, res.Width)
			}
		}
	}
}
