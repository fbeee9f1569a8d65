package route

import (
	"testing"

	"sprout/internal/geom"
)

// twoTerm returns a simple open rectangle space with terminals at the left
// and right edges.
func twoTerm(t *testing.T, w, h, dx int64) (*TileGraph, geom.Region) {
	t.Helper()
	avail := geom.RegionFromRect(geom.R(0, 0, w, h))
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, dx, h)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(w-dx, 0, w, h)), Current: 1},
	}
	tg, err := BuildTileGraph(avail, terms, dx, dx)
	if err != nil {
		t.Fatal(err)
	}
	return tg, avail
}

func TestBuildTileGraphGridCounts(t *testing.T) {
	// 40x20 space, 10x10 tiles -> 4x2 = 8 tiles. Left column (2 tiles)
	// contracts into terminal S, right column into T: 8-2 = 6 nodes.
	tg, _ := twoTerm(t, 40, 20, 10)
	if tg.G.N() != 6 {
		t.Fatalf("nodes = %d, want 6", tg.G.N())
	}
	var total int64
	for _, a := range tg.Area {
		total += a
	}
	if total != 800 {
		t.Fatalf("total tile area = %d, want 800", total)
	}
	if tg.Terminals[0] == tg.Terminals[1] {
		t.Fatal("terminals must be distinct nodes")
	}
}

func TestBuildTileGraphEdgeConductance(t *testing.T) {
	// Two full 10x10 tiles side by side: contact 10, pitch 10 -> g = 1.
	avail := geom.RegionFromRect(geom.R(0, 0, 20, 10))
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 2, 2))},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(18, 0, 20, 2))},
	}
	tg, err := BuildTileGraph(avail, terms, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	edges := rowEdges(tg.G)
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(edges))
	}
	if edges[0].Weight != 1 {
		t.Fatalf("conductance = %g, want 1 (full contact)", edges[0].Weight)
	}
}

func TestBuildTileGraphHalfContact(t *testing.T) {
	// L-shaped space: the contact between the corner tile and its right
	// neighbor is halved (paper Fig. 6: narrower contact, lower weight).
	avail := geom.RegionFromRects([]geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 10}, // full tile A
		{X0: 10, Y0: 0, X1: 20, Y1: 5}, // half-height tile B
	})
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 2, 2))},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(18, 0, 20, 2))},
	}
	tg, err := BuildTileGraph(avail, terms, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	edges := rowEdges(tg.G)
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(edges))
	}
	if edges[0].Weight != 0.5 {
		t.Fatalf("conductance = %g, want 0.5 (half contact)", edges[0].Weight)
	}
}

func TestBuildTileGraphSplitsDisconnectedTilePieces(t *testing.T) {
	// A tile crossed by a full-height slot: the two pieces must become
	// distinct nodes with no conducting edge across the slot.
	avail := geom.RegionFromRect(geom.R(0, 0, 10, 10)).
		Subtract(geom.RegionFromRect(geom.R(4, 0, 6, 10)))
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 2, 2))},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(8, 0, 10, 2))},
	}
	tg, err := BuildTileGraph(avail, terms, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tg.G.N() != 2 {
		t.Fatalf("nodes = %d, want 2 pieces", tg.G.N())
	}
	if tg.G.M() != 0 {
		t.Fatalf("edges = %d, want 0 (slot must break conduction)", tg.G.M())
	}
}

func TestBuildTileGraphTerminalContraction(t *testing.T) {
	// A terminal spanning multiple tiles becomes one node whose cell is
	// the union (paper Fig. 7).
	avail := geom.RegionFromRect(geom.R(0, 0, 40, 10))
	terms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 25, 10))}, // covers 3 tiles
		{Name: "T", Shape: geom.RegionFromRect(geom.R(38, 0, 40, 10))},
	}
	tg, err := BuildTileGraph(avail, terms, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tg.G.N() != 2 {
		t.Fatalf("nodes = %d, want 2 (3 tiles contracted + 1)", tg.G.N())
	}
	s := tg.Terminals[0]
	if tg.Area[s] != 300 {
		t.Fatalf("contracted terminal area = %d, want 300", tg.Area[s])
	}
}

func TestBuildTileGraphErrors(t *testing.T) {
	avail := geom.RegionFromRect(geom.R(0, 0, 20, 10))
	padS := geom.RegionFromRect(geom.R(0, 0, 2, 2))
	padT := geom.RegionFromRect(geom.R(18, 0, 20, 2))
	if _, err := BuildTileGraph(avail, []Terminal{{Name: "S", Shape: padS}}, 10, 10); err == nil {
		t.Fatal("one terminal must error")
	}
	if _, err := BuildTileGraph(avail, []Terminal{{Name: "S", Shape: padS}, {Name: "T", Shape: padT}}, 0, 10); err == nil {
		t.Fatal("zero tile size must error")
	}
	if _, err := BuildTileGraph(geom.EmptyRegion(), []Terminal{{Name: "S", Shape: padS}, {Name: "T", Shape: padT}}, 10, 10); err == nil {
		t.Fatal("empty space must error")
	}
	// Terminal outside the space.
	out := geom.RegionFromRect(geom.R(100, 100, 110, 110))
	if _, err := BuildTileGraph(avail, []Terminal{{Name: "S", Shape: padS}, {Name: "X", Shape: out}}, 10, 10); err == nil {
		t.Fatal("unroutable terminal must error")
	}
	// Two terminals sharing a tile.
	padT2 := geom.RegionFromRect(geom.R(3, 3, 5, 5))
	if _, err := BuildTileGraph(avail, []Terminal{{Name: "S", Shape: padS}, {Name: "T", Shape: padT2}}, 10, 10); err == nil {
		t.Fatal("terminals sharing a tile must error")
	}
	// Empty terminal shape.
	if _, err := BuildTileGraph(avail, []Terminal{{Name: "S", Shape: padS}, {Name: "T", Shape: geom.EmptyRegion()}}, 10, 10); err == nil {
		t.Fatal("empty terminal shape must error")
	}
}

func TestUnionAndMembersArea(t *testing.T) {
	tg, avail := twoTerm(t, 40, 20, 10)
	all := make([]bool, tg.G.N())
	for i := range all {
		all[i] = true
	}
	if !tg.Union(all).Equal(avail) {
		t.Fatal("union of all cells must equal the available space")
	}
	if tg.MembersArea(all) != avail.Area() {
		t.Fatal("members area of full mask must equal space area")
	}
	none := make([]bool, tg.G.N())
	if !tg.Union(none).Empty() || tg.MembersArea(none) != 0 {
		t.Fatal("empty mask must give empty union")
	}
	if MemberCount(all) != tg.G.N() || MemberCount(none) != 0 {
		t.Fatal("member count")
	}
}

func TestIsTerminal(t *testing.T) {
	tg, _ := twoTerm(t, 40, 20, 10)
	for _, term := range tg.Terminals {
		if !tg.IsTerminal(term) {
			t.Fatalf("node %d should be terminal", term)
		}
	}
	count := 0
	for id := 0; id < tg.G.N(); id++ {
		if tg.IsTerminal(id) {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("terminal count = %d, want 2", count)
	}
}
