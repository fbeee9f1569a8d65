package sprout_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"sprout"
	"sprout/internal/cases"
)

// mlPlanSummary folds a multilayer result into one line per net: its via
// positions in plan order, then per layer the copper's component count,
// area and an FNV-64a hash of its canonical rectangles.
func mlPlanSummary(res *sprout.MLBoardResult) string {
	var sb strings.Builder
	for _, nr := range res.Nets {
		fmt.Fprintf(&sb, "%s vias=[", nr.Name)
		for i, v := range nr.Vias {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "(%d,%d)L%d-%d", v.At.X, v.At.Y, v.FromLayer, v.ToLayer)
		}
		sb.WriteString("]")
		layers := make([]int, 0, len(nr.Copper))
		for l := range nr.Copper {
			layers = append(layers, l)
		}
		sort.Ints(layers)
		for _, l := range layers {
			c := nr.Copper[l]
			h := fnv.New64a()
			for _, r := range c.Rects() {
				fmt.Fprintf(h, "%d,%d,%d,%d;", r.X0, r.Y0, r.X1, r.Y1)
			}
			fmt.Fprintf(&sb, " L%d:comps=%d,area=%d,hash=%016x", l, len(c.Components()), c.Area(), h.Sum64())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestMultilayerPlanPinned pins the plan and copper of RouteBoardMultilayer
// on the three case boards, routed as `sprout -case <name> -multilayer`
// routes them, and on the walled two-layer board of mlBoard, whose net must
// tunnel through vias. The planner's 3-D graph takes its lateral edges in
// the Alg. 1 tiling's contact order, which no golden otherwise covers, so
// a change of that order that moves a shortest-path tie shows here.
func TestMultilayerPlanPinned(t *testing.T) {
	want := map[string]string{
		"tworail": "VDD1 vias=[] L7:comps=1,area=5997,hash=91d731781736f2aa\n" +
			"VDD2 vias=[] L7:comps=1,area=5200,hash=fce552d515739799\n",
		"threerail": "MODEM vias=[] L9:comps=3,area=7496,hash=b3c60293adb9e0cb\n" +
			"CPU vias=[] L9:comps=11,area=7488,hash=b0e00becbb723dc3\n" +
			"DSP vias=[] L9:comps=1,area=1488,hash=f9b599fb0a317978\n",
		"sixrail": "V1 vias=[] L9:comps=28,area=4204,hash=c3ba9d043603382a\n" +
			"V2 vias=[] L9:comps=44,area=3582,hash=0f4ff07496862fb9\n" +
			"V3 vias=[] L9:comps=49,area=3567,hash=d4cd451524d25db2\n" +
			"V4 vias=[] L9:comps=51,area=3580,hash=ff7e7a7a912709fe\n" +
			"V5 vias=[] L9:comps=51,area=3549,hash=474e17e0da2c9b0b\n" +
			"V6 vias=[] L9:comps=49,area=4190,hash=66d07cb65be6b5b4\n",
		"walled": "VDD vias=[(65,25)L1-2 (145,25)L1-2] L1:comps=1,area=1200,hash=d3894fd8a9094c0e L2:comps=1,area=1200,hash=7c09b66c513cde2c\n",
	}
	route := func(name string, b *sprout.Board, opt sprout.MLRouteOptions) {
		t.Helper()
		res, err := sprout.RouteBoardMultilayer(b, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := mlPlanSummary(res)
		if got != want[name] {
			t.Errorf("%s: multilayer plan diverged:\ngot:\n%swant:\n%s", name, got, want[name])
		}
	}
	for _, c := range []struct {
		name string
		load func() (*cases.CaseStudy, error)
	}{
		{"tworail", cases.TwoRail},
		{"threerail", func() (*cases.CaseStudy, error) { return cases.ThreeRail(cases.Table4()[4]) }},
		{"sixrail", cases.SixRail},
	} {
		cs, err := c.load()
		if err != nil {
			t.Fatal(err)
		}
		route(c.name, cs.Board, sprout.MLRouteOptions{Budgets: cs.Budgets, Config: cs.Config})
	}
	b, vdd := mlBoard(t)
	route("walled", b, sprout.MLRouteOptions{
		Budgets: map[sprout.NetID]int64{vdd: 1200},
		Config:  sprout.RouteConfig{DX: 5, DY: 5},
	})
}
