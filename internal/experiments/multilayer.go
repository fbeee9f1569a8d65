package experiments

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"sprout/internal/geom"
	"sprout/internal/report"
	"sprout/internal/route"
	"sprout/internal/svgout"
)

// MultilayerResult captures the Appendix decomposition experiment.
type MultilayerResult struct {
	Plan       *route.ViaPlan
	PerLayer   map[int][]*route.Result
	TotalVias  int
	LayersUsed []int
}

// RunMultilayer reproduces the Fig. 5b / Fig. 13 situation: the routing
// layer is split by a keepout wall, so the net must descend through vias
// to a lower layer and come back up (Algorithm 6), after which each layer
// routes independently.
func RunMultilayer(outDir string) (*MultilayerResult, error) {
	ctx := context.Background()
	l1 := geom.RegionFromRect(geom.R(0, 0, 160, 60)).
		Subtract(geom.RegionFromRect(geom.R(72, 0, 88, 60)))
	l2 := geom.RegionFromRect(geom.R(0, 0, 160, 60)).
		Subtract(geom.RegionFromRect(geom.R(40, 20, 56, 40))) // unrelated blockage below
	spaces := []route.LayerSpace{{Layer: 1, Avail: l1}, {Layer: 2, Avail: l2}}
	terms := []route.MLTerminal{
		{Name: "S", Layer: 1, Shape: geom.RegionFromRect(geom.R(2, 24, 10, 36)), Current: 2},
		{Name: "T", Layer: 1, Shape: geom.RegionFromRect(geom.R(150, 24, 158, 36)), Current: 2},
	}
	plan, err := route.PlanMultilayerCtx(ctx, spaces, terms, 8, 6)
	if err != nil {
		return nil, err
	}
	availOf := map[int]geom.Region{1: l1, 2: l2}
	out := &MultilayerResult{
		Plan:       plan,
		PerLayer:   map[int][]*route.Result{},
		TotalVias:  len(plan.Vias),
		LayersUsed: plan.LayersUsed(),
	}
	for _, layer := range plan.LayersUsed() {
		results, err := route.RouteLayerCtx(ctx, availOf[layer], plan.PerLayer[layer],
			route.Config{DX: 4, DY: 4, AreaMax: 1400})
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", layer, err)
		}
		out.PerLayer[layer] = results
	}

	if outDir != "" {
		for _, layer := range out.LayersUsed {
			c := svgout.New(geom.R(0, 0, 160, 60))
			c.Region(availOf[layer], svgout.Style{Fill: "#eeeeea", Stroke: "#999", StrokeWidth: 0.5})
			for _, r := range out.PerLayer[layer] {
				c.Region(r.Shape, svgout.Style{Fill: "#2060c0", Opacity: 0.85})
			}
			for _, v := range plan.Vias {
				c.Circle(v.At, 2, svgout.Style{Fill: "#000"})
			}
			for _, t := range terms {
				if t.Layer == layer {
					c.Region(t.Shape, svgout.Style{Fill: "#c02020"})
				}
			}
			path := filepath.Join(outDir, fmt.Sprintf("fig13_layer%d.svg", layer))
			if err := c.WriteFile(path); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Multilayer runs the experiment and prints the decomposition summary.
func Multilayer(w io.Writer, outDir string) (*MultilayerResult, error) {
	section(w, "E9 / Figs. 5, 13 + Alg. 6", "multilayer routing through vias")
	res, err := RunMultilayer(outDir)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("placed vias", "via", "x", "y", "layers")
	for i, v := range res.Plan.Vias {
		t.AddRow(i, v.At.X, v.At.Y, fmt.Sprintf("%d→%d", v.FromLayer, v.ToLayer))
	}
	if err := t.Render(w); err != nil {
		return nil, err
	}
	t2 := report.NewTable("per-layer single-layer routing problems",
		"layer", "terminals", "routed components", "copper units²")
	for _, layer := range res.LayersUsed {
		var area int64
		for _, r := range res.PerLayer[layer] {
			area += r.Shape.Area()
		}
		t2.AddRow(layer, len(res.Plan.PerLayer[layer]), len(res.PerLayer[layer]), area)
	}
	fmt.Fprintln(w)
	if err := t2.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nthe wall on layer 1 forces %d vias; via count is minimized by the weighted\n", res.TotalVias)
	fmt.Fprintln(w, "3-D shortest path (via edges cost more than lateral steps, Alg. 6).")
	return res, nil
}
