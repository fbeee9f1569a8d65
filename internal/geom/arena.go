package geom

// Arena hands out canonical Regions whose bands and spans are carved from
// shared backing slices, so that building many small regions, such as the
// pieces of an Alg. 1 tiling, costs a few allocations in all rather than
// two per region. Every band and span window a Region receives is capped
// with a three-index slice, so no append to one Region can write into a
// neighbour's storage. The scratch that splitting a region into
// components needs is kept across calls.
//
// The zero Arena is ready to use. Reserve sizes its next block exactly;
// with nothing reserved, each call takes exactly the storage it needs.
// An Arena is not safe for concurrent use.
type Arena struct {
	// bands[:len] and spans[:len] are handed out; the rest of their
	// capacity is the current block's free room.
	bands []band
	spans []span
	// resBands and resSpans size the next block.
	resBands, resSpans int

	// Scratch of Components, reused across calls.
	uf    unionFind
	first []int
	ord   []int
	parts []part
	out   []Region
}

// part is one component being dealt by Components: its band and span
// counts, the band index of its last span, and its windows of the arena.
type part struct {
	nb, ns int
	last   int
	bands  []band
	spans  []span
}

// Reserve adds the bands and spans that RegionFromSortedRects(rects)
// takes to the arena's next block. Reserving every input before carving
// any sizes the block exactly, with no growth slack. Input that
// RegionFromSortedRects hands to RegionFromRects reserves nothing.
func (a *Arena) Reserve(rects []Rect) {
	nb, ns, _ := sortedLayout(rects)
	a.resBands += nb
	a.resSpans += ns
}

// take carves windows of nb bands and ns spans from the current block,
// starting a new block of the reserved size, or of exactly this request,
// when the current one has no room.
func (a *Arena) take(nb, ns int) ([]band, []span) {
	if cap(a.bands)-len(a.bands) < nb {
		a.bands = make([]band, 0, max(a.resBands, nb))
		a.resBands = 0
	}
	if cap(a.spans)-len(a.spans) < ns {
		a.spans = make([]span, 0, max(a.resSpans, ns))
		a.resSpans = 0
	}
	b, s := len(a.bands), len(a.spans)
	a.bands = a.bands[:b+nb]
	a.spans = a.spans[:s+ns]
	return a.bands[b : b+nb : b+nb], a.spans[s : s+ns : s+ns]
}

// RegionFromSortedRects returns the same region as RegionFromRects for
// rectangles already laid out in bands, carved from the arena:
// consecutive rectangles with equal Y0 and Y1 form one band, bands ascend
// in y without overlapping, and the rectangles of a band ascend in x
// without overlapping or touching. The Rects of a region, and their clips
// to one rectangle, have this layout. Such input is built into canonical
// form in one pass, merging vertically adjacent bands with identical
// spans; any other input falls back to RegionFromRects.
func (a *Arena) RegionFromSortedRects(rects []Rect) Region {
	nb, ns, ok := sortedLayout(rects)
	if !ok {
		return RegionFromRects(rects)
	}
	if nb == 0 {
		return Region{}
	}
	bands, spans := a.take(nb, ns)
	b, s := 0, 0
	for lo, prev := 0, 0; lo < len(rects); {
		hi := runEnd(rects, lo)
		if continues(rects, prev, lo, hi) {
			bands[b-1].Y1 = rects[lo].Y1
		} else {
			w := spans[s : s+hi-lo : s+hi-lo]
			for k, r := range rects[lo:hi] {
				w[k] = span{r.X0, r.X1}
			}
			bands[b] = band{rects[lo].Y0, rects[lo].Y1, w}
			b++
			s += hi - lo
		}
		prev, lo = lo, hi
	}
	return Region{bands: bands}
}

// sortedLayout reports whether rects have the band layout that
// RegionFromSortedRects reads and, if so, how many bands and spans their
// canonical form holds.
func sortedLayout(rects []Rect) (nb, ns int, ok bool) {
	for _, r := range rects {
		if r.Empty() {
			return 0, 0, false
		}
	}
	for lo, prev := 0, 0; lo < len(rects); {
		hi := runEnd(rects, lo)
		if lo > 0 && rects[lo].Y0 < rects[lo-1].Y1 {
			return 0, 0, false
		}
		if !continues(rects, prev, lo, hi) {
			nb++
			ns += hi - lo
		}
		prev, lo = lo, hi
	}
	return nb, ns, true
}

// runEnd returns the end of the band that starts at rects[lo]: the
// following rectangles with the same Y0 and Y1 that ascend in x without
// touching.
func runEnd(rects []Rect, lo int) int {
	hi := lo + 1
	for hi < len(rects) && rects[hi].Y0 == rects[lo].Y0 && rects[hi].Y1 == rects[lo].Y1 &&
		rects[hi-1].X1 < rects[hi].X0 {
		hi++
	}
	return hi
}

// continues reports whether the band rects[lo:hi] merges into the band
// before it, which starts at rects[prev]: it touches it from above and
// has the same spans.
func continues(rects []Rect, prev, lo, hi int) bool {
	if lo == 0 || rects[prev].Y1 != rects[lo].Y0 || lo-prev != hi-lo {
		return false
	}
	for k := 0; k < hi-lo; k++ {
		if rects[prev+k].X0 != rects[lo+k].X0 || rects[prev+k].X1 != rects[lo+k].X1 {
			return false
		}
	}
	return true
}

// Components is Region.Components with the components carved from the
// arena. A region of one component is returned as it is. The returned
// slice is the arena's and the next call overwrites it; the Regions in it
// stay valid.
func (a *Arena) Components(g Region) []Region {
	if g.Empty() {
		return nil
	}
	// Rect k of the Rects decomposition is span k-first[bi] of band bi.
	a.first = resize(a.first, len(g.bands)+1)
	first := a.first
	first[0] = 0
	for bi, b := range g.bands {
		first[bi+1] = first[bi] + len(b.Spans)
	}
	n := first[len(g.bands)]
	if n == 1 {
		a.out = append(a.out[:0], g)
		return a.out
	}
	uf := &a.uf
	uf.reset(n)
	// Within a band, spans never touch (canonical form), so only vertical
	// adjacency matters: match the overlapping spans of each pair of
	// touching bands.
	for bi := 0; bi+1 < len(g.bands); bi++ {
		lower, upper := g.bands[bi], g.bands[bi+1]
		if lower.Y1 != upper.Y0 {
			continue
		}
		ju := 0
		for jl, s := range lower.Spans {
			for ju < len(upper.Spans) && upper.Spans[ju].X1 <= s.X0 {
				ju++
			}
			for k := ju; k < len(upper.Spans) && upper.Spans[k].X0 < s.X1; k++ {
				// Positive-length overlap joins the components.
				uf.union(first[bi]+jl, first[bi+1]+k)
			}
		}
	}
	// Number the components by ascending root, replacing each rect's
	// entry by its component.
	a.ord = resize(a.ord, n)
	ord := a.ord
	nc := 0
	for i := range ord {
		if uf.find(i) == i {
			ord[i] = nc
			nc++
		}
	}
	if nc == 1 {
		a.out = append(a.out[:0], g)
		return a.out
	}
	for i := range ord {
		ord[i] = ord[uf.find(i)]
	}
	// Count each component's bands and spans, carve one window of each
	// per component, and deal the spans; a component's spans within one
	// band stay sorted, so coalescing its bands gives canonical form.
	a.parts = resize(a.parts, nc)
	parts := a.parts
	for c := range parts {
		parts[c] = part{last: -1}
	}
	nb := 0
	for bi, b := range g.bands {
		for j := range b.Spans {
			p := &parts[ord[first[bi]+j]]
			if p.last != bi {
				p.last = bi
				p.nb++
				nb++
			}
			p.ns++
		}
	}
	bands, spans := a.take(nb, n)
	for c := range parts {
		p := &parts[c]
		p.bands, bands = bands[:0:p.nb], bands[p.nb:]
		p.spans, spans = spans[:0:p.ns], spans[p.ns:]
		p.last = -1
	}
	for bi, b := range g.bands {
		for j, s := range b.Spans {
			p := &parts[ord[first[bi]+j]]
			if p.last != bi {
				p.last = bi
				p.bands = append(p.bands, band{b.Y0, b.Y1, nil})
			}
			lo := len(p.spans) - len(p.bands[len(p.bands)-1].Spans)
			p.spans = append(p.spans, s)
			p.bands[len(p.bands)-1].Spans = p.spans[lo:len(p.spans):len(p.spans)]
		}
	}
	a.out = a.out[:0]
	for c := range parts {
		bs := coalesceBands(parts[c].bands)
		a.out = append(a.out, Region{bands: bs[:len(bs):len(bs)]})
		parts[c] = part{}
	}
	return a.out
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
