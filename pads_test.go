package sprout

import (
	"testing"

	"sprout/internal/cases"
	"sprout/internal/geom"
)

// TestOnePassPadUnions checks that the pad unions built in one pass over
// the pads' rectangles equal the pairwise Union folds they replaced: each
// terminal group's Shape, and termPads over each rail's terminals, on the
// two-, three- and six-rail boards.
func TestOnePassPadUnions(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"threerail", func() (*cases.CaseStudy, error) { return cases.ThreeRail(cases.Table4()[0]) }},
		{"sixrail", cases.SixRail},
	} {
		cs, err := tc.load()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range cs.Board.Groups {
			var fold geom.Region
			for _, p := range g.Pads {
				fold = fold.Union(p)
			}
			if got := g.Shape(); !got.Equal(fold) {
				t.Fatalf("%s group %s: one-pass shape %v, fold %v", tc.name, g.Name, got, fold)
			}
		}
		for _, net := range cs.Board.Nets {
			terms := railTerminals(cs.Board, net.ID, cs.RoutingLayer)
			fold := geom.EmptyRegion()
			for _, term := range terms {
				fold = fold.Union(term.Shape)
			}
			if got := termPads(terms); !got.Equal(fold) {
				t.Fatalf("%s net %s: one-pass pads %v, fold %v", tc.name, net.Name, got, fold)
			}
		}
	}
}
