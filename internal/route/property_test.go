package route

import (
	"math/rand"
	"testing"

	"sprout/internal/geom"
)

// randomScene builds a random routable scene: an open frame with up to
// three rectangular blockages and 2-4 terminals on the frame edges.
// Scenes where a blockage disconnects the terminals are discarded by the
// caller via the returned ok flag.
func randomScene(rng *rand.Rand) (geom.Region, []Terminal, bool) {
	w := int64(80 + rng.Intn(80))
	h := int64(60 + rng.Intn(60))
	avail := geom.RegionFromRect(geom.R(0, 0, w, h))
	nBlocks := rng.Intn(3)
	for i := 0; i < nBlocks; i++ {
		bw := int64(10 + rng.Intn(int(w/3)))
		bh := int64(10 + rng.Intn(int(h/3)))
		x := int64(rng.Intn(int(w - bw)))
		y := int64(rng.Intn(int(h - bh)))
		avail = avail.Subtract(geom.RegionFromRect(geom.R(x, y, x+bw, y+bh)))
	}
	// Terminals pinned to the corners (kept clear of the random blocks by
	// placement margins).
	corners := []geom.Rect{
		geom.R(0, 0, 8, 8),
		geom.R(w-8, 0, w, 8),
		geom.R(w-8, h-8, w, h),
		geom.R(0, h-8, 8, h),
	}
	k := 2 + rng.Intn(3)
	var terms []Terminal
	for i := 0; i < k; i++ {
		pad := geom.RegionFromRect(corners[i]).Intersect(avail)
		if pad.Empty() {
			return avail, nil, false
		}
		terms = append(terms, Terminal{
			Name:    string(rune('A' + i)),
			Shape:   pad,
			Current: 1 + rng.Float64()*4,
		})
	}
	// All terminals must live in one component.
	comps := avail.Components()
	for _, comp := range comps {
		all := true
		for _, t := range terms {
			if !comp.Overlaps(t.Shape) {
				all = false
				break
			}
		}
		if all {
			return avail, terms, true
		}
	}
	return avail, nil, false
}

// TestPropertyRouteInvariants routes dozens of random scenes and checks
// the structural invariants that must hold for every input:
// copper ⊆ available space, area ≤ budget (+ one grow batch), every
// terminal reached, resistance positive and no worse than the seed.
func TestPropertyRouteInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	routed := 0
	for trial := 0; trial < 60 && routed < 30; trial++ {
		avail, terms, ok := randomScene(rng)
		if !ok {
			continue
		}
		budget := avail.Area() / 3
		cfg := Config{DX: 5, DY: 5, AreaMax: budget}
		res, err := Route(avail, terms, cfg)
		if err != nil {
			// A legal failure: seed larger than the random budget.
			continue
		}
		routed++
		if !res.Shape.Subtract(avail).Empty() {
			t.Fatalf("trial %d: copper escaped the space", trial)
		}
		slack := int64(25 * 20) // one default grow batch of 5x5 tiles
		if res.Shape.Area() > budget+slack {
			t.Fatalf("trial %d: area %d exceeds budget %d", trial, res.Shape.Area(), budget)
		}
		for _, term := range terms {
			if !res.Shape.Overlaps(term.Shape) {
				t.Fatalf("trial %d: terminal %s unreached", trial, term.Name)
			}
		}
		if res.Resistance <= 0 {
			t.Fatalf("trial %d: resistance %g", trial, res.Resistance)
		}
		if res.Resistance > res.Trace[0].Resistance+1e-9 {
			t.Fatalf("trial %d: final %g worse than seed %g",
				trial, res.Resistance, res.Trace[0].Resistance)
		}
	}
	if routed < 15 {
		t.Fatalf("only %d scenes routed; generator too restrictive", routed)
	}
}

// TestPropertySeedFraction verifies on random two-terminal scenes that the
// seed subgraph stays well below the full space (a thickened path, not a
// flood fill). Scenes with three or more corner terminals are excluded:
// their pairwise paths legitimately ring the board and the voidless rule
// (Alg. 2) then fills the enclosed interior.
func TestPropertySeedFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	checked := 0
	for trial := 0; trial < 60 && checked < 20; trial++ {
		avail, terms, ok := randomScene(rng)
		if !ok || len(terms) != 2 {
			continue
		}
		tg, err := BuildTileGraph(avail, terms, 5, 5)
		if err != nil {
			continue
		}
		members, err := tg.Seed()
		if err != nil {
			continue
		}
		checked++
		if a := tg.MembersArea(members); a > avail.Area()*3/4 {
			t.Fatalf("trial %d: seed area %d is %d%% of the space",
				trial, a, 100*a/avail.Area())
		}
		if !tg.TerminalsConnected(members) {
			t.Fatalf("trial %d: seed does not connect terminals", trial)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d scenes checked", checked)
	}
}

// TestPropertyGrowMonotone checks Rayleigh monotonicity on random scenes:
// growth never increases the objective.
func TestPropertyGrowMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	checked := 0
	for trial := 0; trial < 30 && checked < 12; trial++ {
		avail, terms, ok := randomScene(rng)
		if !ok {
			continue
		}
		tg, err := BuildTileGraph(avail, terms, 5, 5)
		if err != nil {
			continue
		}
		members, err := tg.Seed()
		if err != nil {
			continue
		}
		m, err := tg.NodeCurrents(members, nil)
		if err != nil {
			continue
		}
		checked++
		for i := 0; i < 4; i++ {
			prev := m.Resistance
			var added []int
			added, m, err = tg.SmartGrow(members, m, 8, nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(added) == 0 {
				break
			}
			if cur := m.Resistance; cur > prev+1e-9 {
				t.Fatalf("trial %d: growth increased resistance %g -> %g", trial, prev, cur)
			}
		}
	}
	if checked < 6 {
		t.Fatalf("only %d scenes checked", checked)
	}
}
