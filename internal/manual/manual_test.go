package manual

import (
	"context"
	"math"
	"testing"

	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/route"
)

func openScene() (geom.Region, []route.Terminal) {
	avail := geom.RegionFromRect(geom.R(0, 0, 200, 100))
	terms := []route.Terminal{
		{Name: "PMIC", Shape: geom.RegionFromRect(geom.R(0, 45, 10, 55)), Current: 4},
		{Name: "BGA", Shape: geom.RegionFromRect(geom.R(190, 45, 200, 55)), Current: 4},
	}
	return avail, terms
}

func TestManualRouteConnects(t *testing.T) {
	avail, terms := openScene()
	res, err := Route(avail, terms, 3000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !connectsAllOracle(res.Shape, terms) {
		t.Fatal("manual route must connect terminals")
	}
	if !res.Shape.Subtract(avail).Empty() {
		t.Fatal("copper escaped the available space")
	}
	if res.Width < 1 {
		t.Fatalf("width = %d", res.Width)
	}
}

func TestManualRouteHitsAreaTarget(t *testing.T) {
	avail, terms := openScene()
	for _, target := range []int64{2000, 4000, 8000} {
		res, err := Route(avail, terms, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(res.Shape.Area())
		if math.Abs(got-float64(target))/float64(target) > 0.35 {
			t.Fatalf("target %d: area %g deviates more than 35%%", target, got)
		}
	}
}

func TestManualRouteAroundObstacle(t *testing.T) {
	avail := geom.RegionFromRect(geom.R(0, 0, 200, 100)).
		Subtract(geom.RegionFromRect(geom.R(80, 0, 120, 70)))
	terms := []route.Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 10, 10, 20)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(190, 10, 200, 20)), Current: 1},
	}
	res, err := Route(avail, terms, 4000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !connectsAllOracle(res.Shape, terms) {
		t.Fatal("manual route must connect around the obstacle")
	}
	if res.Shape.Overlaps(geom.RegionFromRect(geom.R(80, 0, 120, 70))) {
		t.Fatal("copper entered the obstacle")
	}
}

func TestManualRegularGeometry(t *testing.T) {
	// The manual shape must be "regular": few boundary vertices compared
	// to a SPROUT shape of the same area.
	avail, terms := openScene()
	res, err := Route(avail, terms, 4000, 10)
	if err != nil {
		t.Fatal(err)
	}
	v := 0
	for _, loop := range res.Shape.Trace() {
		v += len(loop.V)
	}
	if v > 24 {
		t.Fatalf("manual shape has %d vertices; expected a regular corridor (<=24)", v)
	}
}

func TestManualVsSproutImpedanceComparable(t *testing.T) {
	// The paper's headline: SPROUT impedance is within a few percent of
	// manual routing at equal area. Allow a generous envelope here.
	avail, terms := openScene()
	target := int64(5000)
	man, err := Route(avail, terms, target, 10)
	if err != nil {
		t.Fatal(err)
	}
	spr, err := route.RouteCtx(context.Background(), avail, terms, route.Config{DX: 10, DY: 10, AreaMax: target})
	if err != nil {
		t.Fatal(err)
	}
	opt := extract.Options{Pitch: 5, SheetOhms: 0.0005, HeightUM: 100}
	repMan, err := extract.ExtractCtx(context.Background(), man.Shape, terms, opt)
	if err != nil {
		t.Fatal(err)
	}
	repSpr, err := extract.ExtractCtx(context.Background(), spr.Shape, terms, opt)
	if err != nil {
		t.Fatal(err)
	}
	ratio := repSpr.ResistanceOhms / repMan.ResistanceOhms
	if ratio > 1.5 || ratio < 0.4 {
		t.Fatalf("SPROUT/manual resistance ratio = %g, want comparable (0.4-1.5)", ratio)
	}
}

func TestManualRouteErrors(t *testing.T) {
	avail, terms := openScene()
	if _, err := Route(avail, terms, 0, 10); err == nil {
		t.Fatal("zero target must error")
	}
	if _, err := Route(avail, terms, 1000, 0); err == nil {
		t.Fatal("zero tile must error")
	}
	if _, err := Route(geom.EmptyRegion(), terms, 1000, 10); err == nil {
		t.Fatal("empty space must error")
	}
	// Unreachable terminals.
	split := geom.RegionFromRect(geom.R(0, 0, 200, 100)).
		Subtract(geom.RegionFromRect(geom.R(90, 0, 110, 100)))
	if _, err := Route(split, terms, 1000, 10); err == nil {
		t.Fatal("split space must error")
	}
}
