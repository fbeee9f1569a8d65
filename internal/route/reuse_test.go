package route

import (
	"context"
	"math"
	"slices"
	"testing"
)

// TestReusedNodeCurrentCarriesNothingStale scores a dilated mask, hands
// its metrics back, then scores a smaller mask through the same cache. The
// smaller mask keeps the seed and a ring of tiles two steps out, which is
// cut off from the terminals: the ring carried current in the dilated
// mask, so any stale entry would show there. The refilled buffer must be
// the one handed back, hold exactly 0 off the terminal component, and
// equal a nil-cache evaluation bit for bit (the cache's warm starts are
// dropped, so both solve cold).
func TestReusedNodeCurrentCarriesNothingStale(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	once := slices.Clone(seed)
	tg.Dilate(once)
	twice := slices.Clone(once)
	tg.Dilate(twice)
	smaller := slices.Clone(seed)
	var ring []int
	for id := range twice {
		if twice[id] && !once[id] {
			smaller[id] = true
			ring = append(ring, id)
		}
	}

	warm := NewSolveCache()
	big, err := tg.NodeCurrentsCtx(context.Background(), twice, warm)
	if err != nil {
		t.Fatal(err)
	}
	carried := 0
	for _, id := range ring {
		if big.NodeCurrent[id] != 0 {
			carried++
		}
	}
	if carried == 0 {
		t.Fatal("no ring tile carries current in the dilated mask; the test would show nothing")
	}
	buf := big.NodeCurrent
	warm.release(big)
	warm.pairVolts = nil // solve cold, like the nil-cache reference

	got, err := tg.NodeCurrentsCtx(context.Background(), smaller, warm)
	if err != nil {
		t.Fatal(err)
	}
	if &got.NodeCurrent[0] != &buf[0] {
		t.Fatal("the evaluation did not refill the buffer handed back")
	}
	want, err := tg.NodeCurrentsCtx(context.Background(), smaller, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]bool, tg.G.N())
	for _, id := range warm.sess.compNodes {
		comp[id] = true
	}
	for id, v := range got.NodeCurrent {
		if !comp[id] && v != 0 {
			t.Errorf("node %d (member %v) is off the terminal component but holds %g", id, smaller[id], v)
		}
		if math.Float64bits(v) != math.Float64bits(want.NodeCurrent[id]) {
			t.Errorf("node %d: reused buffer holds %x, nil cache %x", id, v, want.NodeCurrent[id])
		}
	}
	if got.Resistance != want.Resistance {
		t.Errorf("resistance %x, nil cache %x", got.Resistance, want.Resistance)
	}
}

// TestStepsNeverReuseCallerMetrics drives the exported steps through one
// cache and keeps every *Metrics they hand out. The steps release only the
// metrics of masks they produced and left themselves, so every buffer a
// caller received must still hold what it held on receipt.
func TestStepsNeverReuseCallerMetrics(t *testing.T) {
	avail, terms := obstacleSpace(t)
	tg, err := BuildTileGraph(avail, terms, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	members, err := tg.Seed()
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSolveCache()
	type held struct {
		m    *Metrics
		snap []float64
	}
	var all []held
	keep := func(m *Metrics) *Metrics {
		all = append(all, held{m, slices.Clone(m.NodeCurrent)})
		return m
	}
	m, err := tg.NodeCurrentsCtx(context.Background(), members, warm)
	if err != nil {
		t.Fatal(err)
	}
	keep(m)
	areaMax := tg.MembersArea(members) * 2
	for tg.MembersArea(members) < 3*areaMax/2 {
		added, next, err := tg.SmartGrowCtx(context.Background(), members, m, 8, warm)
		if err != nil {
			t.Fatal(err)
		}
		if len(added) == 0 {
			break
		}
		m = keep(next)
	}
	if m, err = tg.ErodeCtx(context.Background(), members, m, areaMax, 4, warm); err != nil {
		t.Fatal(err)
	}
	keep(m)
	for it := 0; it < 4; it++ {
		if m, err = tg.SmartRefineCtx(context.Background(), members, m, 4, warm); err != nil {
			t.Fatal(err)
		}
		keep(m)
	}
	for i, h := range all {
		if !slices.Equal(h.m.NodeCurrent, h.snap) {
			t.Fatalf("metrics %d handed to the caller changed after later steps", i)
		}
	}
}
