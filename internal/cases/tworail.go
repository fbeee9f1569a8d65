package cases

import (
	"sprout/internal/board"
	"sprout/internal/ckt"
	"sprout/internal/geom"
	"sprout/internal/route"
)

// TwoRail builds the Fig. 9 scenario: part of an eight-layer PCB for a
// wireless application. The PMIC sits on bottom layer 8 and feeds two
// rails, V_DD1 and V_DD2, through inductors whose outputs reach routing
// layer 7 by vias; the rails connect to two groups of BGA vias on layer 7.
// Dedicated ground planes occupy layers 2, 6 and 8, and a blockage crosses
// the routing region. Board section: 30 x 20 mm (300 x 200 units).
func TwoRail() (*CaseStudy, error) {
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1-top", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2-gnd", CopperUM: 35, DielectricBelowUM: 100, IsPlane: true},
		{Name: "L3", CopperUM: 18, DielectricBelowUM: 100},
		{Name: "L4", CopperUM: 18, DielectricBelowUM: 100},
		{Name: "L5", CopperUM: 18, DielectricBelowUM: 100},
		{Name: "L6-gnd", CopperUM: 35, DielectricBelowUM: 100, IsPlane: true},
		{Name: "L7-pwr", CopperUM: 70, DielectricBelowUM: 100},
		{Name: "L8-gnd", CopperUM: 35, DielectricBelowUM: 0, IsPlane: true},
	}}
	rules := board.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := board.New("two-rail-wireless", geom.R(0, 0, 300, 200), stack, rules)
	if err != nil {
		return nil, err
	}
	const layer = 7

	vdd1 := b.AddNet("VDD1", 4, 5)
	vdd2 := b.AddNet("VDD2", 3, 5)

	// PMIC inductor output vias near the left edge (the PMIC itself is on
	// layer 8; its outputs surface on layer 7 through vias).
	if err := addGroup(b, board.TerminalGroup{
		Name: "pmic_vdd1", Kind: board.KindPMIC, Net: vdd1, Layer: layer,
		Pads: []geom.Region{viaPad(geom.Pt(30, 135), 6)}, Current: 4,
	}); err != nil {
		return nil, err
	}
	if err := addGroup(b, board.TerminalGroup{
		Name: "pmic_vdd2", Kind: board.KindPMIC, Net: vdd2, Layer: layer,
		Pads: []geom.Region{viaPad(geom.Pt(30, 65), 6)}, Current: 3,
	}); err != nil {
		return nil, err
	}

	// BGA via groups on the right side: 3x3 clusters at 8-unit pitch.
	if err := addGroup(b, board.TerminalGroup{
		Name: "bga_vdd1", Kind: board.KindBGA, Net: vdd1, Layer: layer,
		Pads: viaCluster(geom.Pt(246, 134), 3, 3, 8, 2), Current: 4,
	}); err != nil {
		return nil, err
	}
	if err := addGroup(b, board.TerminalGroup{
		Name: "bga_vdd2", Kind: board.KindBGA, Net: vdd2, Layer: layer,
		Pads: viaCluster(geom.Pt(246, 50), 3, 3, 8, 2), Current: 3,
	}); err != nil {
		return nil, err
	}

	// Blockages (diagonal hatch in Fig. 9a): a central keepout and a
	// corner cutout.
	if err := b.AddObstacle(board.NetNone, layer, geom.RegionFromRect(geom.R(130, 80, 165, 125))); err != nil {
		return nil, err
	}
	if err := b.AddObstacle(board.NetNone, layer, geom.RegionFromRect(geom.R(190, 0, 220, 35))); err != nil {
		return nil, err
	}

	return &CaseStudy{
		Board:        b,
		RoutingLayer: layer,
		Budgets: map[board.NetID]int64{
			vdd1: 6000,
			vdd2: 5200,
		},
		Config: route.Config{
			DX: 5, DY: 5,
			GrowNodes: 20, RefineNodes: 10, RefineIters: 10,
			ReheatDilations: 2,
		},
		Decaps:  map[board.NetID][]ckt.Decap{},
		VSupply: 1.0,
	}, nil
}
