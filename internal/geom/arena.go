package geom

// arena hands out the components of a region as canonical Regions whose
// bands and spans are carved from shared backing slices, so that splitting
// a region costs a few allocations in all rather than two per component.
// Every band and span window a Region receives is capped with a
// three-index slice, so no append to one Region can write into a
// neighbour's storage. The scratch that splitting needs is kept across
// calls.
//
// The zero arena is ready to use. An arena is not safe for concurrent use.
type arena struct {
	// bands[:len] and spans[:len] are handed out; the rest of their
	// capacity is the current block's free room.
	bands []band
	spans []span

	// Scratch of components, reused across calls.
	uf    unionFind
	first []int
	ord   []int
	parts []part
	out   []Region
}

// part is one component being dealt by components: its band and span
// counts, the band index of its last span, and its windows of the arena.
type part struct {
	nb, ns int
	last   int
	bands  []band
	spans  []span
}

// take carves windows of nb bands and ns spans from the current block,
// starting a new block of exactly this request when the current one has
// no room.
func (a *arena) take(nb, ns int) ([]band, []span) {
	if cap(a.bands)-len(a.bands) < nb {
		a.bands = make([]band, 0, nb)
	}
	if cap(a.spans)-len(a.spans) < ns {
		a.spans = make([]span, 0, ns)
	}
	b, s := len(a.bands), len(a.spans)
	a.bands = a.bands[:b+nb]
	a.spans = a.spans[:s+ns]
	return a.bands[b : b+nb : b+nb], a.spans[s : s+ns : s+ns]
}

// components is Region.Components with the components carved from the
// arena. A region of one component is returned as it is. The returned
// slice is the arena's and the next call overwrites it; the Regions in it
// stay valid.
func (a *arena) components(g Region) []Region {
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
