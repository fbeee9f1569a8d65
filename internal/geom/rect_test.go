package geom

import "testing"

func TestRectNormalize(t *testing.T) {
	r := R(10, 20, 0, 5)
	want := Rect{0, 5, 10, 20}
	if r != want {
		t.Fatalf("R normalize = %v, want %v", r, want)
	}
}

func TestRectEmpty(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 0, 0}, true},
		{Rect{0, 0, 1, 0}, true},
		{Rect{0, 0, 0, 1}, true},
		{Rect{0, 0, 1, 1}, false},
		{Rect{5, 5, 3, 9}, true},
	}
	for _, c := range cases {
		if got := c.r.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRectArea(t *testing.T) {
	if got := (Rect{0, 0, 4, 3}).Area(); got != 12 {
		t.Fatalf("area = %d, want 12", got)
	}
	if got := (Rect{2, 2, 2, 9}).Area(); got != 0 {
		t.Fatalf("empty area = %d, want 0", got)
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("expected overlap")
	}
	c := Rect{10, 0, 20, 10} // touching edge, half-open: no overlap
	if a.Overlaps(c) {
		t.Fatal("touching rects must not overlap")
	}
	if !a.Intersect(c).Empty() {
		t.Fatal("touching intersection must be empty")
	}
}

func TestRectUnionBBox(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{5, 5, 6, 7}
	got := a.Union(b)
	want := Rect{0, 0, 6, 7}
	if got != want {
		t.Fatalf("union bbox = %v, want %v", got, want)
	}
	if a.Union(Rect{}) != a || (Rect{}).Union(a) != a {
		t.Fatal("union with empty must be identity")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(Pt(0, 0)) {
		t.Fatal("contains lower-left corner")
	}
	if r.Contains(Pt(10, 10)) {
		t.Fatal("half-open: upper-right corner excluded")
	}
	if !r.ContainsRect(Rect{2, 2, 10, 10}) {
		t.Fatal("contains inner rect up to the open edge")
	}
	if r.ContainsRect(Rect{2, 2, 11, 10}) {
		t.Fatal("must not contain protruding rect")
	}
	if !r.ContainsRect(Rect{}) {
		t.Fatal("empty rect contained everywhere")
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{5, 5, 10, 10}
	if got, want := r.Expand(2), (Rect{3, 3, 12, 12}); got != want {
		t.Fatalf("expand = %v, want %v", got, want)
	}
	if got := r.Expand(-3); !got.Empty() {
		t.Fatalf("over-shrunk rect should be empty, got %v", got)
	}
}

func TestRectTranslateCenter(t *testing.T) {
	r := Rect{0, 0, 4, 6}
	if got, want := r.Translate(Pt(10, -2)), (Rect{10, -2, 14, 4}); got != want {
		t.Fatalf("translate = %v, want %v", got, want)
	}
	if got, want := r.Center(), Pt(2, 3); got != want {
		t.Fatalf("center = %v, want %v", got, want)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got, want := p.Add(q), Pt(4, 2); got != want {
		t.Fatalf("add = %v, want %v", got, want)
	}
}
