package route_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sprout/internal/geom"
	"sprout/internal/route"
)

// fragmentCellsHold fails unless every node of tg lists non-empty,
// pairwise disjoint fragments whose union has the node's Area and
// Bounds.
func fragmentCellsHold(t testing.TB, name string, tg *route.TileGraph) {
	t.Helper()
	if len(tg.Cells) != tg.G.N() || len(tg.Area) != tg.G.N() {
		t.Fatalf("%s: %d cells and %d areas for %d nodes", name, len(tg.Cells), len(tg.Area), tg.G.N())
	}
	for i, cell := range tg.Cells {
		if len(cell) == 0 {
			t.Fatalf("%s: node %d has no fragments", name, i)
		}
		for a, ra := range cell {
			if ra.Empty() {
				t.Fatalf("%s: node %d fragment %d is empty", name, i, a)
			}
			for b := a + 1; b < len(cell); b++ {
				if ra.Overlaps(cell[b]) {
					t.Fatalf("%s: node %d fragments %v and %v overlap", name, i, ra, cell[b])
				}
			}
		}
		reg := geom.RegionFromRects(cell)
		if tg.Area[i] != reg.Area() || tg.Bounds(i) != reg.Bounds() {
			t.Fatalf("%s: node %d has area %d and bounds %v, its region %d and %v",
				name, i, tg.Area[i], tg.Bounds(i), reg.Area(), reg.Bounds())
		}
	}
}

// TestTileCellsAreDisjointFragments checks the fragment cells of every
// golden rail space and extraction re-tile, and of seeded random and
// abutting spaces, contracted terminals included.
func TestTileCellsAreDisjointFragments(t *testing.T) {
	for _, sp := range goldenTileSpaces(t) {
		tg, err := route.BuildTileGraph(sp.avail, sp.terms, sp.dx, sp.dy)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		fragmentCellsHold(t, sp.name, tg)
	}
	r := rand.New(rand.NewSource(35))
	built := 0
	for i := 0; i < 2000; i++ {
		avail, terms, dx, dy := randomTileCase(r)
		if i%4 == 0 {
			avail, terms, dx, dy = randomAbuttingCase(r)
		}
		tg, err := route.BuildTileGraph(avail, terms, dx, dy)
		if err != nil {
			continue
		}
		fragmentCellsHold(t, fmt.Sprintf("case %d", i), tg)
		built++
	}
	if built < 1000 {
		t.Fatalf("only %d of 2000 random spaces built a tile graph", built)
	}
}
