package route

import (
	"context"

	"sprout/internal/geom"
	"sprout/internal/sparse"
)

// RouteEvals reruns the pipeline on tg with cfg and calls eval with every
// member mask the pipeline scores, just before the nodal analysis runs.
// With fresh set, the solver session and the node-current buffers handed
// back to the cache are thrown away before every evaluation, so each one
// builds its structures and its NodeCurrent vector anew and only the
// warm-start vectors carry over.
func RouteEvals(tg *TileGraph, cfg Config, fresh bool, eval func(members []bool)) (*Result, error) {
	warm := NewSolveCache()
	warm.beforeEval = func(members []bool) {
		if fresh {
			warm.sess = nil
			warm.spare = nil
		}
		eval(members)
	}
	return tg.route(context.Background(), cfg, warm)
}

// RouteAssemblies reruns the pipeline on tg with cfg and calls check with
// the Laplacian the loop's session assembled for every member mask the
// pipeline scores, next to the one sparse.ReassembleLaplacian assembles
// into fresh storage from the same mask. Each loop Laplacian is checked
// just before the next evaluation rebuilds it, the last one after the
// route; a mask whose terminals are disconnected assembles nothing and
// is skipped.
func RouteAssemblies(tg *TileGraph, cfg Config, check func(loop, sorted *sparse.Laplacian)) (*Result, error) {
	warm := NewSolveCache()
	var prev []bool
	checkPrev := func() {
		if prev == nil {
			return
		}
		sorted := newSolverSession(tg)
		if sorted.rebuild(tg, prev, sparse.ReassembleLaplacian) == nil {
			check(warm.sess.lap, sorted.lap)
		}
	}
	warm.beforeEval = func(members []bool) {
		checkPrev()
		prev = append(prev[:0], members...)
	}
	res, err := tg.route(context.Background(), cfg, warm)
	checkPrev()
	return res, err
}

// BuildTileGraphOracle is the original Alg. 1 builder that BuildTileGraph
// must reproduce exactly.
var BuildTileGraphOracle = buildTileGraphOracle

// TileCounts tiles avail on its own bounds like BuildTileGraph and reports
// the number of pieces and the number of grid boxes split into several.
func TileCounts(avail geom.Region, dx, dy int64) (pieces, splitBoxes int) {
	t := tileRegion(avail, avail.Bounds(), dx, dy)
	for c := 0; c+1 < len(t.cellStart); c++ {
		if t.cellStart[c+1]-t.cellStart[c] > 1 {
			splitBoxes++
		}
	}
	return t.numPieces(), splitBoxes
}

// TilingParts is the tiling of a space on its own bounds: each piece's
// first fragment, each box's first piece, and the fragments.
type TilingParts struct {
	RectStart, CellStart []int
	Rects                []geom.Rect
}

// Tiling tiles avail on its own bounds like BuildTileGraph, and with the
// per-box reference tiling that tileRegion must reproduce.
func Tiling(avail geom.Region, dx, dy int64) (got, want TilingParts) {
	parts := func(t *tiling) TilingParts {
		return TilingParts{t.rectStart, t.cellStart, t.rects}
	}
	return parts(tileRegion(avail, avail.Bounds(), dx, dy)),
		parts(tileRegionReference(avail, avail.Bounds(), dx, dy))
}

// Contact is one contact between tile pieces: PA in the left or lower
// box, PB in its neighbour to the right or above (Up), and the length of
// their shared boundary.
type Contact struct {
	PA, PB int
	Length int64
	Up     bool
}

// Contacts tiles avail on its own bounds like BuildTileGraph and lists
// its contacts twice: as tiling.contacts visits them, and as found by
// measuring every piece's region, built from its fragments, against each
// piece of the boxes to its right and above with contactLength, piece by
// piece, the right box first.
func Contacts(avail geom.Region, dx, dy int64) (got, want []Contact) {
	t := tileRegion(avail, avail.Bounds(), dx, dy)
	piece := func(p int) geom.Region { return geom.RegionFromRects(t.fragments(p)) }
	t.contacts(func(pa, pb int, length int64, up bool) {
		got = append(got, Contact{pa, pb, length, up})
	})
	for i := int64(0); i < t.nx; i++ {
		for j := int64(0); j < t.ny; j++ {
			c := i*t.ny + j
			for pa := t.cellStart[c]; pa < t.cellStart[c+1]; pa++ {
				for _, nb := range []struct {
					ok bool
					n  int64
					up bool
				}{{i+1 < t.nx, c + t.ny, false}, {j+1 < t.ny, c + 1, true}} {
					if !nb.ok {
						continue
					}
					for pb := t.cellStart[nb.n]; pb < t.cellStart[nb.n+1]; pb++ {
						if l := contactLength(piece(pa), piece(pb)); l > 0 {
							want = append(want, Contact{pa, pb, l, nb.up})
						}
					}
				}
			}
		}
	}
	return got, want
}

// RemoveLowCurrent runs the erosion guard of SmartRefine and Erode with
// the search state of warm (fresh state when warm is nil): it removes up to
// k low-current members of members that the terminals can spare and
// returns their ids.
func RemoveLowCurrent(tg *TileGraph, warm *SolveCache, members []bool, nodeCurrent []float64, k int) []int {
	return tg.removeLowCurrent(warm.guardScratch(), members, nodeCurrent, k)
}

// RemoveLowCurrentOracle is the original erosion guard that
// RemoveLowCurrent must reproduce exactly.
func RemoveLowCurrentOracle(tg *TileGraph, members []bool, nodeCurrent []float64, k int) []int {
	return tg.removeLowCurrentOracle(members, nodeCurrent, k)
}
