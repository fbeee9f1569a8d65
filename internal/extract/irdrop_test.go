package extract

import (
	"context"
	"math"
	"testing"

	"sprout/internal/geom"
	"sprout/internal/route"
)

func TestDCOperateUniformStrip(t *testing.T) {
	// 1 A through a 100x10 strip (sheet 1 mΩ/sq): end-to-end drop equals
	// the squares count times sheet times current.
	shape, terms := strip(100, 10, 5)
	op, err := DCOperate(context.Background(), shape, terms[0], terms[1:], 1.0,
		Options{Pitch: 5, SheetOhms: 0.001, HeightUM: 100})
	if err != nil {
		t.Fatal(err)
	}
	wantDrop := 0.001 * 9.0 * 1.0 // ~9 squares
	if math.Abs(op.MaxDropV-wantDrop)/wantDrop > 0.12 {
		t.Fatalf("drop = %g, want ~%g", op.MaxDropV, wantDrop)
	}
	// Power = I²R.
	if math.Abs(op.TotalPowerW-wantDrop)/wantDrop > 0.12 {
		t.Fatalf("power = %g, want ~%g W", op.TotalPowerW, wantDrop)
	}
	if op.WorstLoad != 0 {
		t.Fatalf("worst load = %d, want 0", op.WorstLoad)
	}
	// Source node drop must be 0 and all drops non-negative (no node can
	// sit above the source in a resistive sink network).
	for i, d := range op.NodeDropV {
		if d < -1e-9 {
			t.Fatalf("node %d drop %g below source", i, d)
		}
	}
}

func TestDCOperateKCL(t *testing.T) {
	// Branch currents must satisfy KCL: net flow out of the source equals
	// the injected total.
	shape, terms := strip(100, 10, 5)
	op, err := DCOperate(context.Background(), shape, terms[0], terms[1:], 2.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := op.TG.Terminals[0]
	var out float64
	for _, ec := range op.Edges {
		if ec.U == src {
			out += ec.Amps
		}
		if ec.V == src {
			out -= ec.Amps
		}
	}
	if math.Abs(out-2.0) > 1e-6 {
		t.Fatalf("source outflow = %g, want 2", out)
	}
}

func TestDCOperateDistributedLoads(t *testing.T) {
	// Two loads with 3:1 weights on a wide plate: the heavier load sits
	// farther down in voltage when equidistant... place them symmetric and
	// check the drop ordering follows the weights.
	shape := geom.RegionFromRect(geom.R(0, 0, 120, 60))
	source := route.Terminal{Name: "PMIC", Shape: geom.RegionFromRect(geom.R(0, 25, 5, 35)), Current: 4}
	loads := []route.Terminal{
		{Name: "heavy", Shape: geom.RegionFromRect(geom.R(110, 5, 118, 13)), Current: 3},
		{Name: "light", Shape: geom.RegionFromRect(geom.R(110, 47, 118, 55)), Current: 1},
	}
	op, err := DCOperate(context.Background(), shape, source, loads, 4.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	heavyDrop := op.NodeDropV[op.TG.Terminals[1]]
	lightDrop := op.NodeDropV[op.TG.Terminals[2]]
	if heavyDrop <= lightDrop {
		t.Fatalf("heavier load must droop more: %g vs %g", heavyDrop, lightDrop)
	}
	if op.WorstLoad != 0 {
		t.Fatalf("worst load should be the heavy one, got %d", op.WorstLoad)
	}
}

func TestDCOperateValidation(t *testing.T) {
	shape, terms := strip(100, 10, 5)
	if _, err := DCOperate(context.Background(), shape, terms[0], terms[1:], 0, Options{}); err == nil {
		t.Fatal("zero current must error")
	}
	if _, err := DCOperate(context.Background(), shape, terms[0], nil, 1, Options{}); err == nil {
		t.Fatal("no loads must error")
	}
}

func TestNodeJouleHeatSumsToTotalPower(t *testing.T) {
	shape, terms := strip(100, 10, 5)
	opt := Options{Pitch: 5, SheetOhms: 0.001, HeightUM: 100}
	op, err := DCOperate(context.Background(), shape, terms[0], terms[1:], 1.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := op.NodeJouleHeat(opt.SheetOhms)
	var sum float64
	for _, v := range q {
		if v < 0 {
			t.Fatal("negative heat")
		}
		sum += v
	}
	if math.Abs(sum-op.TotalPowerW) > 1e-9*math.Max(1, op.TotalPowerW) {
		t.Fatalf("node heat sum %g != total power %g", sum, op.TotalPowerW)
	}
}
