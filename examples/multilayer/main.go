// Multilayer routing (paper Appendix, Figs. 5 and 13): when a net's
// available space is disjoint within one layer, SPROUT plans vias through a
// 3-D graph, decomposes the problem into single-layer routes, and stitches
// the result. This example walks the full decomposition and prints the
// via plan and the per-layer copper.
//
// Run with: go run ./examples/multilayer
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"sprout/internal/geom"
	"sprout/internal/report"
	"sprout/internal/route"
	"sprout/internal/svgout"
)

func main() {
	ctx := context.Background()
	// Layer 1 is split by a keepout wall; layer 2 is open except for an
	// unrelated blockage. S and T sit on opposite sides of the wall.
	l1 := geom.RegionFromRect(geom.R(0, 0, 200, 80)).
		Subtract(geom.RegionFromRect(geom.R(92, 0, 108, 80)))
	l2 := geom.RegionFromRect(geom.R(0, 0, 200, 80)).
		Subtract(geom.RegionFromRect(geom.R(30, 26, 60, 54)))
	spaces := []route.LayerSpace{
		{Layer: 1, Avail: l1},
		{Layer: 2, Avail: l2},
	}
	terms := []route.MLTerminal{
		{Name: "S", Layer: 1, Shape: geom.RegionFromRect(geom.R(4, 32, 14, 48)), Current: 2},
		{Name: "T", Layer: 1, Shape: geom.RegionFromRect(geom.R(186, 32, 196, 48)), Current: 2},
	}

	plan, err := route.PlanMultilayerCtx(ctx, spaces, terms, 10, 6)
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable("via plan (Alg. 6: 3-D shortest path, via edges cost 6x a lateral step)",
		"via", "x", "y", "layers")
	for i, v := range plan.Vias {
		t.AddRow(i, v.At.X, v.At.Y, fmt.Sprintf("%d→%d", v.FromLayer, v.ToLayer))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	availOf := map[int]geom.Region{1: l1, 2: l2}
	t2 := report.NewTable("per-layer routing after decomposition",
		"layer", "terminals", "copper units²")
	for _, layer := range plan.LayersUsed() {
		results, err := route.RouteLayerCtx(ctx, availOf[layer], plan.PerLayer[layer],
			route.Config{DX: 5, DY: 5, AreaMax: 1800})
		if err != nil {
			log.Fatalf("layer %d: %v", layer, err)
		}
		var copper geom.Region
		for _, r := range results {
			copper = copper.Union(r.Shape)
		}
		t2.AddRow(layer, len(plan.PerLayer[layer]), copper.Area())

		c := svgout.New(geom.R(0, 0, 200, 80))
		c.Region(availOf[layer], svgout.Style{Fill: "#eeeeea", Stroke: "#999", StrokeWidth: 0.5})
		c.Region(copper, svgout.Style{Fill: "#2060c0", Opacity: 0.85})
		for _, v := range plan.Vias {
			c.Circle(v.At, 3, svgout.Style{Fill: "#000"})
		}
		for _, term := range terms {
			if term.Layer == layer {
				c.Region(term.Shape, svgout.Style{Fill: "#c02020"})
			}
		}
		name := fmt.Sprintf("multilayer_layer%d.svg", layer)
		if err := c.WriteFile(name); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", name)
	}
	fmt.Println()
	if err := t2.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
