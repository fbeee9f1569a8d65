package thermal

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/route"
)

func stripOp(t *testing.T, w, h int64, amps float64) (*extract.OperatingPoint, extract.Options) {
	t.Helper()
	shape := geom.RegionFromRect(geom.R(0, 0, w, h))
	source := route.Terminal{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 5, h)), Current: amps}
	load := route.Terminal{Name: "T", Shape: geom.RegionFromRect(geom.R(w-5, 0, w, h)), Current: amps}
	opt := extract.Options{Pitch: 5, SheetOhms: 0.001, HeightUM: 100}
	op, err := extract.DCOperate(context.Background(), shape, source, []route.Terminal{load}, amps, opt)
	if err != nil {
		t.Fatal(err)
	}
	return op, opt
}

func TestSimulateEnergyBalance(t *testing.T) {
	// Total heat in equals total heat out: Σ h·A_i·T_i == Σ q_i.
	op, exOpt := stripOp(t, 100, 10, 2)
	opt := Options{BoardHTC: 800, UnitMM: 0.1, CopperUM: 35}
	m, err := Simulate(context.Background(), op, exOpt.SheetOhms, opt)
	if err != nil {
		t.Fatal(err)
	}
	unitM := 0.1e-3
	var out float64
	for i, rise := range m.RiseC {
		out += 800 * float64(op.TG.Area[i]) * unitM * unitM * rise
	}
	if math.Abs(out-m.TotalPowerW)/m.TotalPowerW > 1e-6 {
		t.Fatalf("heat out %g != heat in %g", out, m.TotalPowerW)
	}
}

func TestSimulateNoLateralMatchesLocalBalance(t *testing.T) {
	// With (effectively) zero lateral conduction every node balances
	// locally: T_i = q_i / (h·A_i).
	op, exOpt := stripOp(t, 100, 10, 1)
	opt := Options{CopperWPerMK: 1e-12, BoardHTC: 500, UnitMM: 0.1, CopperUM: 35}
	m, err := Simulate(context.Background(), op, exOpt.SheetOhms, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := op.NodeJouleHeat(exOpt.SheetOhms)
	unitM := 0.1e-3
	for i := range m.RiseC {
		want := q[i] / (500 * float64(op.TG.Area[i]) * unitM * unitM)
		if math.Abs(m.RiseC[i]-want) > 1e-9+1e-6*want {
			t.Fatalf("node %d rise %g, want %g", i, m.RiseC[i], want)
		}
	}
}

func TestSimulateLateralSpreadingFlattens(t *testing.T) {
	// Strong lateral conduction must reduce the hotspot versus weak
	// lateral conduction (same heat, same sink).
	op, exOpt := stripOp(t, 100, 10, 2)
	weak, err := Simulate(context.Background(), op, exOpt.SheetOhms, Options{CopperWPerMK: 1})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Simulate(context.Background(), op, exOpt.SheetOhms, Options{CopperWPerMK: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if strong.MaxRiseC >= weak.MaxRiseC {
		t.Fatalf("spreading must flatten the hotspot: %g vs %g", strong.MaxRiseC, weak.MaxRiseC)
	}
}

func TestSimulateHotspotAtConstriction(t *testing.T) {
	// A dumbbell: two plates joined by a narrow neck. The neck carries the
	// full current at high density — the hotspot must sit in or near it.
	shape := geom.RegionFromRects([]geom.Rect{
		{X0: 0, Y0: 0, X1: 40, Y1: 40},
		{X0: 40, Y0: 17, X1: 80, Y1: 23}, // 6-wide neck
		{X0: 80, Y0: 0, X1: 120, Y1: 40},
	})
	source := route.Terminal{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 15, 5, 25)), Current: 3}
	load := route.Terminal{Name: "T", Shape: geom.RegionFromRect(geom.R(115, 15, 120, 25)), Current: 3}
	exOpt := extract.Options{Pitch: 5, SheetOhms: 0.001, HeightUM: 100}
	op, err := extract.DCOperate(context.Background(), shape, source, []route.Terminal{load}, 3, exOpt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(context.Background(), op, exOpt.SheetOhms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Hotspot.X < 35 || m.Hotspot.X > 85 {
		t.Fatalf("hotspot at %v, want inside the neck (x in [40,80])", m.Hotspot)
	}
	if m.MaxRiseC <= 0 {
		t.Fatalf("max rise = %g", m.MaxRiseC)
	}
}

func TestSimulateMoreCurrentQuadraticallyHotter(t *testing.T) {
	op1, exOpt := stripOp(t, 100, 10, 1)
	op2, _ := stripOp(t, 100, 10, 2)
	m1, err := Simulate(context.Background(), op1, exOpt.SheetOhms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Simulate(context.Background(), op2, exOpt.SheetOhms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := m2.MaxRiseC / m1.MaxRiseC
	if math.Abs(ratio-4) > 0.2 {
		t.Fatalf("doubling current must ~quadruple the rise, got x%g", ratio)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(context.Background(), nil, 0.001, Options{}); err == nil {
		t.Fatal("nil op must error")
	}
	op, _ := stripOp(t, 50, 10, 1)
	if _, err := Simulate(context.Background(), op, 0, Options{}); err == nil {
		t.Fatal("zero sheet resistance must error")
	}
}

// TestSimulateRejectsBadOptions pins the option validation: a negative,
// NaN or infinite field is an error that names the field, and zero still
// selects the default.
func TestSimulateRejectsBadOptions(t *testing.T) {
	op, exOpt := stripOp(t, 50, 10, 1)
	for _, tc := range []struct {
		field string
		opt   Options
	}{
		{"CopperWPerMK", Options{CopperWPerMK: -400}},
		{"CopperWPerMK", Options{CopperWPerMK: math.NaN()}},
		{"CopperUM", Options{CopperUM: -35}},
		{"CopperUM", Options{CopperUM: math.Inf(1)}},
		{"BoardHTC", Options{BoardHTC: -800}},
		{"UnitMM", Options{UnitMM: -0.1}},
		{"UnitMM", Options{UnitMM: math.NaN()}},
	} {
		m, err := Simulate(context.Background(), op, exOpt.SheetOhms, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%+v: got map %v, error %v; want an error naming %s", tc.opt, m != nil, err, tc.field)
		}
	}
	def, err := Simulate(context.Background(), op, exOpt.SheetOhms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Simulate(context.Background(), op, exOpt.SheetOhms, Options{CopperWPerMK: 400, CopperUM: 35, BoardHTC: 800, UnitMM: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.RiseC {
		if math.Float64bits(def.RiseC[i]) != math.Float64bits(explicit.RiseC[i]) {
			t.Fatalf("node %d: zero options give %v, the explicit defaults %v", i, def.RiseC[i], explicit.RiseC[i])
		}
	}
}

// TestSimulateCancelled requires a cancelled context to abort the solve.
func TestSimulateCancelled(t *testing.T) {
	op, exOpt := stripOp(t, 50, 10, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, op, exOpt.SheetOhms, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulate: got %v, want context.Canceled", err)
	}
}
