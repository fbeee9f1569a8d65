package route

import (
	"context"

	"sprout/internal/geom"
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
	return len(t.pieces), splitBoxes
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
