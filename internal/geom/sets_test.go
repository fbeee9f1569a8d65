package geom

import (
	"math/rand"
	"testing"
)

// TestSets checks the disjoint-set forest on random joins against a
// brute-force labelling: every root is its set's smallest member, every
// parent precedes its child, Join reports exactly the joins that merge two
// sets, and Reset reuses the storage it has.
func TestSets(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	var s Sets
	for c := 0; c < 200; c++ {
		n := 1 + r.Intn(60)
		before := cap(s)
		s.Reset(n)
		if len(s) != n {
			t.Fatalf("case %d: Reset(%d) left %d entries", c, n, len(s))
		}
		if n <= before && cap(s) != before {
			t.Fatalf("case %d: Reset(%d) reallocated storage of capacity %d", c, n, before)
		}
		label := make([]int, n) // brute force: label[i] is i's set's smallest member
		for i := range label {
			label[i] = i
		}
		for k, joins := 0, r.Intn(2*n); k < joins; k++ {
			a, b := r.Intn(n), r.Intn(n)
			la, lb := label[a], label[b]
			if got, want := s.Join(a, b), la != lb; got != want {
				t.Fatalf("case %d: Join(%d, %d) = %v, want %v", c, a, b, got, want)
			}
			lo, hi := min(la, lb), max(la, lb)
			for i := range label {
				if label[i] == hi {
					label[i] = lo
				}
			}
			for i := range s {
				if s[i] > i {
					t.Fatalf("case %d: entry %d has parent %d after it", c, i, s[i])
				}
			}
		}
		for i := range label {
			if got := s.Find(i); got != label[i] {
				t.Fatalf("case %d: Find(%d) = %d, want the smallest member %d", c, i, got, label[i])
			}
		}
	}
	var z Sets
	z.Reset(0)
	if len(z) != 0 {
		t.Fatalf("Reset(0) left %d entries", len(z))
	}
}

// TestJoinTouchingMatchesComponents checks JoinTouching, its sets reused
// from box to box, against Components: the rectangles are the clips of a
// random region's canonical rectangles to random boxes, as the tiling cuts
// them, and the sets must be the rects of each component.
func TestJoinTouchingMatchesComponents(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	var s Sets
	boxes, split := 0, 0
	for i := 0; i < 4000; i++ {
		g := randomSlottedRegion(r)
		if g.Empty() {
			continue
		}
		b := g.Bounds()
		for range 3 {
			x, y := b.X0+r.Int63n(b.W()), b.Y0+r.Int63n(b.H())
			box := Rect{x, y, x + 1 + r.Int63n(24), y + 1 + r.Int63n(24)}
			var frags []Rect
			for _, rc := range g.Rects() {
				if c := rc.Intersect(box); !c.Empty() {
					frags = append(frags, c)
				}
			}
			if len(frags) == 0 {
				continue
			}
			s.Reset(len(frags))
			joins := JoinTouching(s, frags)
			comps := componentsOracle(RegionFromRects(frags))
			if got := len(frags) - joins; got != len(comps) {
				t.Fatalf("case %d: box %v of %v: %d sets, want %d components", i, box, g, got, len(comps))
			}
			for k, f := range frags {
				root := frags[s.Find(k)]
				for _, c := range comps {
					if c.OverlapsRect(f) != c.OverlapsRect(root) {
						t.Fatalf("case %d: fragment %v and its root %v lie in different components", i, f, root)
					}
				}
			}
			boxes++
			if len(comps) > 1 {
				split++
			}
		}
	}
	t.Logf("%d boxes checked, %d split", boxes, split)
	if boxes < 6000 || split < 500 {
		t.Fatalf("%d boxes checked, %d split: too few of either", boxes, split)
	}
}
