package cases

import (
	"fmt"

	"sprout/internal/board"
	"sprout/internal/ckt"
	"sprout/internal/geom"
	"sprout/internal/route"
)

// AreaRow is one row of the paper's Table IV: the target metal area of
// each rail in the paper's normalized units.
type AreaRow struct {
	Layout int
	Modem  float64
	CPU    float64
	DSP    float64
}

// Table4 returns the nine area budgets of paper Table IV.
func Table4() []AreaRow {
	rows := make([]AreaRow, 9)
	for i := range rows {
		rows[i] = AreaRow{
			Layout: i + 1,
			Modem:  15 + 2.5*float64(i),
			CPU:    15 + 2.5*float64(i),
			DSP:    2.5 + 0.625*float64(i),
		}
	}
	return rows
}

// UnitArea converts one normalized area unit of Table IV into grid
// units squared (one normalized unit = 3 mm² = 300 grid units²).
const UnitArea = 300.0

// ThreeRailNets names the rails of the exploration board in net-id order.
var ThreeRailNets = []string{"MODEM", "CPU", "DSP"}

// ThreeRail builds the Fig. 11 exploration board for a given Table IV
// area row: modem, CPU and DSP power nets on a ten-layer board with 86
// BGA vias, blockages, and decoupling capacitors (two on the modem rail,
// five on the CPU rail) whose lands sit on the routing layer. Board
// section: 30 x 30 mm.
func ThreeRail(row AreaRow) (*CaseStudy, error) {
	if row.Modem <= 0 || row.CPU <= 0 || row.DSP <= 0 {
		return nil, fmt.Errorf("cases: non-positive area row %+v", row)
	}
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1-top", CopperUM: 35, DielectricBelowUM: 80},
		{Name: "L2-gnd", CopperUM: 35, DielectricBelowUM: 80, IsPlane: true},
		{Name: "L3", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L4", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L5", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L6-gnd", CopperUM: 35, DielectricBelowUM: 80, IsPlane: true},
		{Name: "L7", CopperUM: 18, DielectricBelowUM: 80},
		{Name: "L8-gnd", CopperUM: 35, DielectricBelowUM: 80, IsPlane: true},
		{Name: "L9-pwr", CopperUM: 35, DielectricBelowUM: 80},
		{Name: "L10-bot", CopperUM: 35, DielectricBelowUM: 0},
	}}
	rules := board.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := board.New("three-rail-exploration", geom.R(0, 0, 300, 300), stack, rules)
	if err != nil {
		return nil, err
	}
	const layer = 9

	modem := b.AddNet("MODEM", 4, 4)
	cpu := b.AddNet("CPU", 6, 3)
	dsp := b.AddNet("DSP", 1.5, 4)
	gnd := b.AddNet("GND", 0, 0)

	// BGA vias (Fig. 11a): modem cluster top-left, CPU center, DSP bottom
	// right, ground vias interspersed. 24 + 36 + 8 + 18 = 86 vias.
	add := func(name string, kind board.TerminalKind, net board.NetID, pads []geom.Region, current float64) error {
		return addGroup(b, board.TerminalGroup{
			Name: name, Kind: kind, Net: net, Layer: layer, Pads: pads, Current: current,
		})
	}
	if err := add("bga_modem", board.KindBGA, modem, viaCluster(geom.Pt(66, 192), 6, 4, 10, 2), 3); err != nil {
		return nil, err
	}
	if err := add("bga_cpu", board.KindBGA, cpu, viaCluster(geom.Pt(126, 126), 6, 6, 10, 2), 5); err != nil {
		return nil, err
	}
	if err := add("bga_dsp", board.KindBGA, dsp, viaCluster(geom.Pt(240, 66), 4, 2, 6, 2), 0.8); err != nil {
		return nil, err
	}
	// Ground vias ring the CPU cluster and separate the modem field, as
	// obstacles with buffers.
	gndPts := []geom.Point{
		{X: 114, Y: 114}, {X: 138, Y: 114}, {X: 162, Y: 114}, {X: 186, Y: 114},
		{X: 114, Y: 198}, {X: 138, Y: 198}, {X: 162, Y: 198}, {X: 186, Y: 198},
		{X: 114, Y: 142}, {X: 114, Y: 170}, {X: 198, Y: 142}, {X: 198, Y: 170},
		{X: 66, Y: 160}, {X: 90, Y: 160}, {X: 228, Y: 100}, {X: 252, Y: 100},
		{X: 48, Y: 100}, {X: 252, Y: 200},
	}
	for _, p := range gndPts {
		if err := b.AddObstacle(gnd, layer, viaPad(p, 2)); err != nil {
			return nil, err
		}
	}

	// Blockages (hatched rectangles in Fig. 11a).
	for _, r := range []geom.Rect{
		geom.R(20, 20, 70, 60),
		geom.R(200, 230, 260, 270),
	} {
		if err := b.AddObstacle(board.NetNone, layer, geom.RegionFromRect(r)); err != nil {
			return nil, err
		}
	}

	// PMIC outputs at the board edges.
	if err := add("pmic_modem", board.KindPMIC, modem, []geom.Region{viaPad(geom.Pt(14, 220), 6)}, 3); err != nil {
		return nil, err
	}
	if err := add("pmic_cpu", board.KindPMIC, cpu, []geom.Region{viaPad(geom.Pt(150, 14), 6)}, 5); err != nil {
		return nil, err
	}
	if err := add("pmic_dsp", board.KindPMIC, dsp, []geom.Region{viaPad(geom.Pt(284, 72), 5)}, 0.8); err != nil {
		return nil, err
	}

	// Decap lands (bottom-layer capacitors surfacing through vias):
	// two on the modem rail, five on the CPU rail (paper §III-C).
	if err := add("decap_modem", board.KindDecap, modem,
		[]geom.Region{viaPad(geom.Pt(40, 250), 3), viaPad(geom.Pt(100, 260), 3)}, 0.5); err != nil {
		return nil, err
	}
	if err := add("decap_cpu", board.KindDecap, cpu,
		[]geom.Region{
			viaPad(geom.Pt(110, 90), 3), viaPad(geom.Pt(150, 88), 3), viaPad(geom.Pt(190, 90), 3),
			viaPad(geom.Pt(210, 150), 3), viaPad(geom.Pt(210, 190), 3),
		}, 0.5); err != nil {
		return nil, err
	}

	return &CaseStudy{
		Board:        b,
		RoutingLayer: layer,
		Budgets: map[board.NetID]int64{
			modem: int64(row.Modem * UnitArea),
			cpu:   int64(row.CPU * UnitArea),
			dsp:   int64(row.DSP * UnitArea),
		},
		Config: route.Config{
			DX: 4, DY: 4,
			GrowNodes: 20, RefineNodes: 10, RefineIters: 6,
		},
		Decaps: map[board.NetID][]ckt.Decap{
			modem: {ckt.DefaultDecap(), ckt.DefaultDecap()},
			cpu: {ckt.DefaultDecap(), ckt.DefaultDecap(), ckt.DefaultDecap(),
				ckt.DefaultDecap(), ckt.DefaultDecap()},
		},
		VSupply: 1.0,
	}, nil
}
