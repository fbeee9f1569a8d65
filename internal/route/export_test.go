package route

import "context"

// RouteEvals reruns the pipeline on tg with cfg and calls eval with every
// member mask the pipeline scores, just before the nodal analysis runs.
// With fresh set, the solver session is thrown away before every
// evaluation, so each one builds its structures anew and only the
// warm-start vectors carry over.
func RouteEvals(tg *TileGraph, cfg Config, fresh bool, eval func(members []bool)) (*Result, error) {
	warm := NewSolveCache()
	warm.beforeEval = func(members []bool) {
		if fresh {
			warm.sess = nil
		}
		eval(members)
	}
	return tg.route(context.Background(), cfg, warm)
}
