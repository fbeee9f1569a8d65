package cases

import (
	"fmt"

	"sprout/internal/board"
	"sprout/internal/ckt"
	"sprout/internal/geom"
	"sprout/internal/route"
)

// SixRail builds the Fig. 10 scenario: a congested BGA arrangement with
// 612 BGA vias — 306 for six power nets (51 each) and 306 for ground —
// projected onto routing layer 9 of a ten-layer PCB. Two PMICs sit on the
// bottom layer, each regulating three voltage domains; their outputs reach
// layer 9 through vias along the bottom edge. Ground planes occupy layers
// 4, 6 and 8, and the ground BGA vias act as buffered obstacles on the
// routing layer (the layer is otherwise flooded with ground metal in the
// manual layout of Fig. 10c). Board section: 32 x 30 mm.
func SixRail() (*CaseStudy, error) {
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1-top", CopperUM: 35, DielectricBelowUM: 80},
		{Name: "L2", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L3", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L4-gnd", CopperUM: 35, DielectricBelowUM: 80, IsPlane: true},
		{Name: "L5", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L6-gnd", CopperUM: 35, DielectricBelowUM: 80, IsPlane: true},
		{Name: "L7", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L8-gnd", CopperUM: 35, DielectricBelowUM: 80, IsPlane: true},
		{Name: "L9-pwr", CopperUM: 70, DielectricBelowUM: 80},
		{Name: "L10-bot", CopperUM: 35, DielectricBelowUM: 0},
	}}
	rules := board.DesignRules{Clearance: 1, ViaCost: 5}
	b, err := board.New("six-rail-congested", geom.R(0, 0, 320, 300), stack, rules)
	if err != nil {
		return nil, err
	}
	const layer = 9

	nets := make([]board.NetID, 6)
	currents := []float64{3, 2, 2.5, 2, 2, 3}
	for i := range nets {
		nets[i] = b.AddNet(fmt.Sprintf("V%d", i+1), currents[i], 5)
	}
	gnd := b.AddNet("GND", 0, 0)

	// BGA via field: 27 x 24 candidate positions at 0.8 mm pitch; the
	// checkerboard and per-net caps below trim this to exactly 612 vias
	// (306 ground + 6 x 51 power).
	const (
		cols     = 27
		rows     = 24
		pitch    = 8
		padHalf  = 2
		originX  = 58
		originY  = 66
		perNet   = 51
		gndTotal = 306
	)
	netPads := make(map[board.NetID][]geom.Region)
	gndCount := 0
	for j := 0; j < rows; j++ {
		for i := 0; i < cols; i++ {
			p := geom.Pt(originX+int64(i)*pitch, originY+int64(j)*pitch)
			pad := viaPad(p, padHalf)
			if (i+j)%2 == 0 {
				// Ground via: a buffered obstacle for every power net.
				if gndCount >= gndTotal {
					continue
				}
				gndCount++
				if err := b.AddObstacle(gnd, layer, pad); err != nil {
					return nil, err
				}
				continue
			}
			// Power via: sector assignment, three columns by two rows of
			// sectors matching Fig. 10a's numbered net regions.
			sx := i * 3 / cols
			sy := j * 2 / rows
			net := nets[sy*3+sx]
			if len(netPads[net]) >= perNet {
				continue
			}
			netPads[net] = append(netPads[net], pad)
		}
	}
	for i, net := range nets {
		if len(netPads[net]) != perNet {
			return nil, fmt.Errorf("cases: net V%d has %d BGA vias, want %d", i+1, len(netPads[net]), perNet)
		}
		if err := addGroup(b, board.TerminalGroup{
			Name: fmt.Sprintf("bga_v%d", i+1), Kind: board.KindBGA, Net: net, Layer: layer,
			Pads: netPads[net], Current: currents[i],
		}); err != nil {
			return nil, err
		}
	}
	if gndCount != gndTotal {
		return nil, fmt.Errorf("cases: ground via count %d, want %d", gndCount, gndTotal)
	}

	// PMIC output vias along the bottom edge: PMIC1 feeds V1-V3 (left),
	// PMIC2 feeds V4-V6 (right).
	pmicX := []int64{40, 80, 120, 200, 240, 280}
	for i, net := range nets {
		if err := addGroup(b, board.TerminalGroup{
			Name: fmt.Sprintf("pmic_v%d", i+1), Kind: board.KindPMIC, Net: net, Layer: layer,
			Pads: []geom.Region{viaPad(geom.Pt(pmicX[i], 20), 5)}, Current: currents[i],
		}); err != nil {
			return nil, err
		}
	}

	budgets := map[board.NetID]int64{}
	for i, net := range nets {
		// Outer sectors travel farther; give them slightly more copper.
		budgets[net] = 3600
		if i == 0 || i == 5 {
			budgets[net] = 4200
		}
	}
	return &CaseStudy{
		Board:        b,
		RoutingLayer: layer,
		Budgets:      budgets,
		Config: route.Config{
			DX: 4, DY: 4,
			GrowNodes: 14, RefineNodes: 15, RefineIters: 12,
			ReheatDilations: 1,
		},
		Decaps:  map[board.NetID][]ckt.Decap{},
		VSupply: 1.0,
	}, nil
}
