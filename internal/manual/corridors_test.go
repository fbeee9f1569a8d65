package manual

import (
	"math/rand"
	"testing"

	"sprout/internal/cases"
	"sprout/internal/geom"
	"sprout/internal/route"
)

// corridorsReference is corridorRects.draw with one padded rectangle per
// step, before consecutive steps along one line were merged.
func corridorsReference(polylines [][]geom.Point, width int64) geom.Region {
	half := halfWidth(width)
	var rects []geom.Rect
	seg := func(a, b geom.Point) {
		rects = append(rects, geom.R(min(a.X, b.X)-half, min(a.Y, b.Y)-half, max(a.X, b.X)+half, max(a.Y, b.Y)+half))
	}
	for _, line := range polylines {
		for i := 0; i+1 < len(line); i++ {
			a, b := line[i], line[i+1]
			if a.X == b.X || a.Y == b.Y {
				seg(a, b)
				continue
			}
			corner := geom.Pt(b.X, a.Y)
			seg(a, corner)
			seg(corner, b)
		}
	}
	return geom.RegionFromRects(rects)
}

// TestCorridorsMergeCollinearSteps checks that merging straight runs of
// backbone steps leaves the corridor region unchanged: on the six-rail
// board's backbones at several widths, and on random polylines with
// diagonal steps, repeated points and reversals.
func TestCorridorsMergeCollinearSteps(t *testing.T) {
	cs, err := cases.SixRail()
	if err != nil {
		t.Fatal(err)
	}
	rails := 0
	for _, net := range cs.Board.Nets {
		avail := cs.Board.AvailableSpace(net.ID, cs.RoutingLayer)
		var terms []route.Terminal
		for _, g := range cs.Board.GroupsOn(net.ID, cs.RoutingLayer) {
			terms = append(terms, route.Terminal{Name: g.Name, Shape: g.Shape(), Current: g.Current})
		}
		if len(terms) < 2 {
			continue // no rail to route on this layer
		}
		tg, err := route.BuildTileGraph(avail, terms, cs.Config.DX, cs.Config.DY)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := backbones(tg)
		if err != nil {
			t.Fatal(err)
		}
		var c corridorRects
		for _, w := range []int64{1, 2, 3, 8, 15, 40, 121} {
			if got, want := c.draw(lines, w), corridorsReference(lines, w); !got.Equal(want) {
				t.Fatalf("net %s width %d: merged corridors %v, want %v", net.Name, w, got, want)
			}
		}
		rails++
	}
	if rails != 6 {
		t.Fatalf("checked %d six-rail backbones, want 6", rails)
	}
	r := rand.New(rand.NewSource(16))
	var c corridorRects
	for i := 0; i < 2000; i++ {
		lines := make([][]geom.Point, 1+r.Intn(3))
		for k := range lines {
			p := geom.Pt(int64(r.Intn(40)), int64(r.Intn(40)))
			for n := r.Intn(12); n >= 0; n-- {
				lines[k] = append(lines[k], p)
				switch r.Intn(4) {
				case 0:
					p.X += int64(r.Intn(11) - 5)
				case 1:
					p.Y += int64(r.Intn(11) - 5)
				case 2:
					p = geom.Pt(p.X+int64(r.Intn(11)-5), p.Y+int64(r.Intn(11)-5))
				}
			}
		}
		w := int64(r.Intn(9))
		if got, want := c.draw(lines, w), corridorsReference(lines, w); !got.Equal(want) {
			t.Fatalf("case %d width %d %v: merged corridors %v, want %v", i, w, lines, got, want)
		}
	}
}
