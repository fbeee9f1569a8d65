package geom

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// span is a half-open x interval [X0, X1).
type span struct {
	X0, X1 int64
}

// band is a horizontal slab [Y0, Y1) covered by a sorted list of disjoint,
// non-touching spans.
type band struct {
	Y0, Y1 int64
	Spans  []span
}

// Region is a set of points in the plane represented canonically as a list
// of horizontal bands. The canonical form satisfies:
//
//   - bands are sorted by Y0 and disjoint in y;
//   - within a band, spans are sorted by X0, disjoint and non-touching
//     (touching spans are merged);
//   - no band is empty;
//   - vertically adjacent bands with identical span lists are merged.
//
// Canonical form makes equality, area and boolean operations exact and
// deterministic. The zero value is the empty region. Regions are immutable:
// every operation returns a new Region.
type Region struct {
	bands []band
}

// EmptyRegion returns the empty region.
func EmptyRegion() Region { return Region{} }

// RegionFromRect returns the region covering exactly r.
func RegionFromRect(r Rect) Region {
	if r.Empty() {
		return Region{}
	}
	return Region{bands: []band{{r.Y0, r.Y1, []span{{r.X0, r.X1}}}}}
}

// RegionFromRects returns the union of the given rectangles in canonical
// form. Overlapping and touching rectangles are merged. It sweeps the
// slabs between consecutive y breakpoints upward, keeping the rectangles
// that cover the current slab, so the work per slab is proportional to
// the rectangles crossing it, not to all that start below it. Its
// buffers are sized from the input; the spans start with room for one
// per rectangle.
func RegionFromRects(rects []Rect) Region {
	// Collect y breakpoints.
	ys := make([]int64, 0, 2*len(rects))
	live := make([]Rect, 0, len(rects))
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		live = append(live, r)
		ys = append(ys, r.Y0, r.Y1)
	}
	if len(live) == 0 {
		return Region{}
	}
	ys = uniqueSorted(ys)
	slices.SortFunc(live, func(a, b Rect) int { return cmp.Compare(a.Y0, b.Y0) })
	// live[:k] holds the rectangles that cover the slab and live[next:]
	// those yet to enter. A rectangle enters by moving down into live[k],
	// which never passes next, so the sweep needs no second slice.
	bands := make([]band, 0, len(ys)-1)
	spans := make([]span, 0, len(live))
	k, next := 0, 0
	for i := 0; i+1 < len(ys); i++ {
		y0, y1 := ys[i], ys[i+1]
		kept := 0
		for _, r := range live[:k] {
			if r.Y1 > y0 {
				live[kept] = r
				kept++
			}
		}
		k = kept
		for ; next < len(live) && live[next].Y0 <= y0; next++ {
			live[k] = live[next]
			k++
		}
		if k == 0 {
			continue
		}
		// Every rectangle in live[:k] starts at or below y0 and ends
		// above it, so at or above y1, the next breakpoint.
		lo := len(spans)
		for _, r := range live[:k] {
			spans = append(spans, span{r.X0, r.X1})
		}
		spans = spans[:lo+len(mergeSpans(spans[lo:]))]
		bands = append(bands, band{y0, y1, spans[lo:]})
	}
	pointBands(bands, spans)
	return Region{bands: coalesceBands(bands)}
}

// pointBands points each band's Spans at its window of spans. The bands
// were recorded, in order, with windows of the right length into a
// backing slice that appending may since have moved, so the windows are
// laid out again over the final one, each capped at its end.
func pointBands(bands []band, spans []span) {
	off := 0
	for i := range bands {
		n := len(bands[i].Spans)
		bands[i].Spans = spans[off : off+n : off+n]
		off += n
	}
}

// uniqueSorted sorts v and removes duplicates in place.
func uniqueSorted(v []int64) []int64 {
	slices.Sort(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// mergeSpans sorts spans and merges overlapping or touching ones.
func mergeSpans(spans []span) []span {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.X0, b.X0) })
	out := spans[:0]
	for _, s := range spans {
		if s.X1 <= s.X0 {
			continue
		}
		if n := len(out); n > 0 && s.X0 <= out[n-1].X1 {
			if s.X1 > out[n-1].X1 {
				out[n-1].X1 = s.X1
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// coalesceBands merges vertically adjacent bands with identical span lists
// and drops empty bands.
func coalesceBands(bands []band) []band {
	out := bands[:0]
	for _, b := range bands {
		if b.Y1 <= b.Y0 || len(b.Spans) == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Y1 == b.Y0 && spansEqual(out[n-1].Spans, b.Spans) {
			out[n-1].Y1 = b.Y1
			continue
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func spansEqual(a, b []span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the region covers no area.
func (g Region) Empty() bool { return len(g.bands) == 0 }

// Area returns the total covered area.
func (g Region) Area() int64 {
	var total int64
	for _, b := range g.bands {
		h := b.Y1 - b.Y0
		for _, s := range b.Spans {
			total += h * (s.X1 - s.X0)
		}
	}
	return total
}

// Bounds returns the bounding box of the region (empty Rect if empty).
func (g Region) Bounds() Rect {
	if g.Empty() {
		return Rect{}
	}
	out := Rect{g.bands[0].Spans[0].X0, g.bands[0].Y0, g.bands[0].Spans[0].X1, g.bands[len(g.bands)-1].Y1}
	for _, b := range g.bands {
		out.X0 = minInt64(out.X0, b.Spans[0].X0)
		out.X1 = maxInt64(out.X1, b.Spans[len(b.Spans)-1].X1)
	}
	return out
}

// Rects returns the canonical rectangle decomposition of the region:
// one rectangle per (band, span), sorted bottom-to-top then left-to-right.
func (g Region) Rects() []Rect {
	n := 0
	for _, b := range g.bands {
		n += len(b.Spans)
	}
	if n == 0 {
		return nil
	}
	return g.AppendRects(make([]Rect, 0, n))
}

// AppendRects appends the Rects decomposition of the region to dst and
// returns the extended slice.
func (g Region) AppendRects(dst []Rect) []Rect {
	for _, b := range g.bands {
		for _, s := range b.Spans {
			dst = append(dst, Rect{s.X0, b.Y0, s.X1, b.Y1})
		}
	}
	return dst
}

// Equal reports whether two regions cover exactly the same points.
func (g Region) Equal(h Region) bool {
	if len(g.bands) != len(h.bands) {
		return false
	}
	for i := range g.bands {
		if g.bands[i].Y0 != h.bands[i].Y0 || g.bands[i].Y1 != h.bands[i].Y1 ||
			!spansEqual(g.bands[i].Spans, h.bands[i].Spans) {
			return false
		}
	}
	return true
}

// spanBool appends to out the spans of the segments that keep(inA, inB)
// selects from the span lists a and b, each sorted and disjoint. xs is
// breakpoint scratch; spanBool returns out and xs for the next call.
func spanBool(out []span, xs []int64, a, b []span, keep func(bool, bool) bool) ([]span, []int64) {
	// Sweep over merged breakpoints.
	xs = breaks(xs[:0], a, b)
	lo := len(out)
	ia, ib := 0, 0
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		for ia < len(a) && a[ia].X1 <= x0 {
			ia++
		}
		for ib < len(b) && b[ib].X1 <= x0 {
			ib++
		}
		inA := ia < len(a) && a[ia].X0 <= x0
		inB := ib < len(b) && b[ib].X0 <= x0
		if keep(inA, inB) {
			if n := len(out); n > lo && out[n-1].X1 == x0 {
				out[n-1].X1 = x1
			} else {
				out = append(out, span{x0, x1})
			}
		}
	}
	return out, xs
}

// breaks appends to xs the distinct span ends of a and b in ascending
// order, merging the two sorted lists.
func breaks(xs []int64, a, b []span) []int64 {
	end := func(s []span, k int) int64 {
		if k%2 == 0 {
			return s[k/2].X0
		}
		return s[k/2].X1
	}
	for i, j := 0, 0; i < 2*len(a) || j < 2*len(b); {
		var x int64
		if j == 2*len(b) || i < 2*len(a) && end(a, i) <= end(b, j) {
			x = end(a, i)
			i++
		} else {
			x = end(b, j)
			j++
		}
		if n := len(xs); n == 0 || xs[n-1] != x {
			xs = append(xs, x)
		}
	}
	return xs
}

// combine applies a per-segment boolean op between g and h. The spans of
// all output bands go into one backing slice.
func (g Region) combine(h Region, keep func(bool, bool) bool) Region {
	if g.Empty() && h.Empty() {
		return Region{}
	}
	// A slab meets at most one band of each region, so its breakpoints
	// number at most twice the widest band of g plus that of h; they and
	// the y breakpoints share one allocation. The output spans start
	// with room for the inputs' span count.
	widest, total := 0, 0
	for _, r := range [2]Region{g, h} {
		w := 0
		for _, b := range r.bands {
			w = max(w, len(b.Spans))
			total += len(b.Spans)
		}
		widest += w
	}
	ny := 2 * (len(g.bands) + len(h.bands))
	buf := make([]int64, 0, ny+2*widest)
	ys, xs := buf[:0:ny], buf[ny:ny]
	for _, r := range [2]Region{g, h} {
		for _, b := range r.bands {
			ys = append(ys, b.Y0, b.Y1)
		}
	}
	ys = uniqueSorted(ys)
	out := make([]band, 0, len(ys)-1)
	spans := make([]span, 0, total)
	ig, ih := 0, 0
	for i := 0; i+1 < len(ys); i++ {
		y0, y1 := ys[i], ys[i+1]
		for ig < len(g.bands) && g.bands[ig].Y1 <= y0 {
			ig++
		}
		for ih < len(h.bands) && h.bands[ih].Y1 <= y0 {
			ih++
		}
		var sa, sb []span
		if ig < len(g.bands) && g.bands[ig].Y0 <= y0 {
			sa = g.bands[ig].Spans
		}
		if ih < len(h.bands) && h.bands[ih].Y0 <= y0 {
			sb = h.bands[ih].Spans
		}
		lo := len(spans)
		spans, xs = spanBool(spans, xs, sa, sb, keep)
		if len(spans) > lo {
			out = append(out, band{y0, y1, spans[lo:]})
		}
	}
	pointBands(out, spans)
	return Region{bands: coalesceBands(out)}
}

// Union returns the set union of g and h.
func (g Region) Union(h Region) Region {
	if g.Empty() {
		return h
	}
	if h.Empty() {
		return g
	}
	return g.combine(h, func(a, b bool) bool { return a || b })
}

// Intersect returns the set intersection of g and h. Only the bands of
// each operand that meet the other's y extent are combined.
func (g Region) Intersect(h Region) Region {
	if g.Empty() || h.Empty() {
		return Region{}
	}
	if !g.Bounds().Overlaps(h.Bounds()) {
		return Region{}
	}
	gw, hw := g.window(h), h.window(g)
	if gw.Empty() || hw.Empty() {
		return Region{}
	}
	return gw.combine(hw, func(a, b bool) bool { return a && b })
}

// Subtract returns g minus h. Only the bands of h that meet g's y extent
// are combined, so cutting a small region out of a large one costs in
// proportion to the small one.
func (g Region) Subtract(h Region) Region {
	if g.Empty() || h.Empty() {
		return g
	}
	if !g.Bounds().Overlaps(h.Bounds()) {
		return g
	}
	hw := h.window(g)
	if hw.Empty() {
		return g
	}
	return g.combine(hw, func(a, b bool) bool { return a && !b })
}

// window returns the bands of g that meet the y extent of the non-empty
// region h, found by binary search and shared with g. Any run of a
// canonical region's bands is itself canonical.
func (g Region) window(h Region) Region {
	y0, y1 := h.bands[0].Y0, h.bands[len(h.bands)-1].Y1
	lo := sort.Search(len(g.bands), func(i int) bool { return g.bands[i].Y1 > y0 })
	hi := lo + sort.Search(len(g.bands)-lo, func(i int) bool { return g.bands[lo+i].Y0 >= y1 })
	return Region{bands: g.bands[lo:hi]}
}

// Overlaps reports whether g and h share any area, without materializing
// the intersection.
func (g Region) Overlaps(h Region) bool {
	if g.Empty() || h.Empty() || !g.Bounds().Overlaps(h.Bounds()) {
		return false
	}
	ig, ih := 0, 0
	for ig < len(g.bands) && ih < len(h.bands) {
		a, b := g.bands[ig], h.bands[ih]
		if a.Y1 <= b.Y0 {
			ig++
			continue
		}
		if b.Y1 <= a.Y0 {
			ih++
			continue
		}
		// Bands overlap in y; check spans.
		ja, jb := 0, 0
		for ja < len(a.Spans) && jb < len(b.Spans) {
			if a.Spans[ja].X1 <= b.Spans[jb].X0 {
				ja++
			} else if b.Spans[jb].X1 <= a.Spans[ja].X0 {
				jb++
			} else {
				return true
			}
		}
		if a.Y1 <= b.Y1 {
			ig++
		} else {
			ih++
		}
	}
	return false
}

// OverlapsRect reports whether g and r share any area. It binary-searches
// the bands r crosses and, in each, the first span ending right of r.X0.
func (g Region) OverlapsRect(r Rect) bool {
	if r.Empty() {
		return false
	}
	i := sort.Search(len(g.bands), func(i int) bool { return g.bands[i].Y1 > r.Y0 })
	for ; i < len(g.bands) && g.bands[i].Y0 < r.Y1; i++ {
		sp := g.bands[i].Spans
		j := sort.Search(len(sp), func(j int) bool { return sp[j].X1 > r.X0 })
		if j < len(sp) && sp[j].X0 < r.X1 {
			return true
		}
	}
	return false
}

// Bloat returns the morphological dilation of the region by a square
// structuring element of half-width d (Minkowski sum with a 2d x 2d
// square). This implements the "buffer" of paper Fig. 4: the region of
// points within Chebyshev distance d of the shape. d <= 0 returns g.
func (g Region) Bloat(d int64) Region {
	if d <= 0 || g.Empty() {
		return g
	}
	rects := g.Rects()
	for i := range rects {
		rects[i] = rects[i].Expand(d)
	}
	return RegionFromRects(rects)
}

// Erode returns the morphological erosion of the region by a square
// structuring element of half-width d: the set of points whose d-square
// neighbourhood lies entirely inside g. Erode is the dual of Bloat:
// Erode(g, d) == complement(Bloat(complement(g), d)).
func (g Region) Erode(d int64) Region {
	if d <= 0 || g.Empty() {
		return g
	}
	frame := g.Bounds().Expand(2 * d)
	comp := RegionFromRect(frame).Subtract(g)
	return g.Subtract(comp.Bloat(d))
}

// Components splits the region into edge-connected components.
// Two rectangles belong to the same component when
// they share a boundary segment of positive length. Corner-touching pieces
// are separate components, matching the electrical connectivity model: a
// zero-width contact carries no current (paper Fig. 6 assigns conductance
// proportional to contact width). Components come in the order of their
// first rectangle in the Rects decomposition. A region of one component
// is returned as it is; otherwise the components' bands are carved from
// one band slice and their spans from one span slice, each window capped
// at its end, so no append to one component reaches another.
func (g Region) Components() []Region {
	if g.Empty() {
		return nil
	}
	rects := g.Rects()
	var sets Sets
	sets.Reset(len(rects))
	if JoinTouching(sets, rects) == len(rects)-1 {
		return []Region{g}
	}
	// Every parent precedes its child, so one ascending pass rewrites
	// each rect's entry as its component's number, the roots numbered in
	// order.
	nc := 0
	for k, p := range sets {
		if p == k {
			sets[k] = nc
			nc++
		} else {
			sets[k] = sets[p]
		}
	}
	// Count each component's bands and spans, carve its windows, and
	// deal the spans; a component's spans within one band stay sorted,
	// so coalescing its bands gives canonical form.
	type part struct {
		nb, ns int
		last   int // band index of the part's last span
		bands  []band
		spans  []span
	}
	parts := make([]part, nc)
	for c := range parts {
		parts[c].last = -1
	}
	nb, k := 0, 0
	for bi, b := range g.bands {
		for range b.Spans {
			p := &parts[sets[k]]
			k++
			if p.last != bi {
				p.last = bi
				p.nb++
				nb++
			}
			p.ns++
		}
	}
	bands, spans := make([]band, nb), make([]span, len(rects))
	for c := range parts {
		p := &parts[c]
		p.bands, bands = bands[:0:p.nb], bands[p.nb:]
		p.spans, spans = spans[:0:p.ns], spans[p.ns:]
		p.last = -1
	}
	k = 0
	for bi, b := range g.bands {
		for _, s := range b.Spans {
			p := &parts[sets[k]]
			k++
			if p.last != bi {
				p.last = bi
				p.bands = append(p.bands, band{b.Y0, b.Y1, nil})
			}
			top := &p.bands[len(p.bands)-1]
			lo := len(p.spans) - len(top.Spans)
			p.spans = append(p.spans, s)
			top.Spans = p.spans[lo:len(p.spans):len(p.spans)]
		}
	}
	out := make([]Region, nc)
	for c, p := range parts {
		bs := coalesceBands(p.bands)
		out[c] = Region{bands: bs[:len(bs):len(bs)]}
	}
	return out
}

// String renders a compact band listing, useful in test failures.
func (g Region) String() string {
	if g.Empty() {
		return "{}"
	}
	var sb strings.Builder
	for i, b := range g.bands {
		if i > 0 {
			sb.WriteByte(' ')
		}
		_, _ = sb.WriteString("y[")
		writeInt(&sb, b.Y0)
		sb.WriteByte(',')
		writeInt(&sb, b.Y1)
		sb.WriteString("):")
		for j, s := range b.Spans {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte('[')
			writeInt(&sb, s.X0)
			sb.WriteByte(',')
			writeInt(&sb, s.X1)
			sb.WriteByte(')')
		}
	}
	return sb.String()
}

func writeInt(sb *strings.Builder, v int64) {
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	sb.Write(buf[i:])
}
