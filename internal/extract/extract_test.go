package extract

import (
	"context"
	"math"
	"strings"
	"testing"

	"sprout/internal/geom"
	"sprout/internal/route"
)

// strip builds a W-long, H-wide rectangle with full-height terminals at
// both ends of width tw.
func strip(w, h, tw int64) (geom.Region, []route.Terminal) {
	shape := geom.RegionFromRect(geom.R(0, 0, w, h))
	terms := []route.Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, tw, h)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(w-tw, 0, w, h)), Current: 1},
	}
	return shape, terms
}

func TestExtractStripResistanceMatchesSheetModel(t *testing.T) {
	// 100x10 strip, 5-wide end terminals: interior is 90/10 = 9 squares.
	shape, terms := strip(100, 10, 5)
	rep, err := ExtractCtx(context.Background(), shape, terms, Options{Pitch: 5, SheetOhms: 0.001, HeightUM: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.001 * 9.0
	if math.Abs(rep.ResistanceOhms-want)/want > 0.12 {
		t.Fatalf("strip resistance = %g, want ~%g (within 12%%)", rep.ResistanceOhms, want)
	}
	if len(rep.PairResistanceOhms) != 1 {
		t.Fatalf("pair count = %d, want 1", len(rep.PairResistanceOhms))
	}
}

func TestExtractStripInductanceMatchesMicrostrip(t *testing.T) {
	// L = μ0·h·ℓ/w for a uniform strip: 9 squares at h=100 µm.
	shape, terms := strip(100, 10, 5)
	rep, err := ExtractCtx(context.Background(), shape, terms, Options{Pitch: 5, SheetOhms: 0.001, HeightUM: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := Mu0PHPerUM * 100 * 9.0
	if math.Abs(rep.InductancePH-want)/want > 0.12 {
		t.Fatalf("strip inductance = %g pH, want ~%g pH", rep.InductancePH, want)
	}
}

func TestExtractWiderShapeLowerImpedance(t *testing.T) {
	shapeN, termsN := strip(100, 10, 5)
	shapeW, termsW := strip(100, 20, 5)
	repN, err := ExtractCtx(context.Background(), shapeN, termsN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repW, err := ExtractCtx(context.Background(), shapeW, termsW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if repW.ResistanceOhms >= repN.ResistanceOhms {
		t.Fatalf("wider strip must have lower R: %g vs %g", repW.ResistanceOhms, repN.ResistanceOhms)
	}
	if repW.InductancePH >= repN.InductancePH {
		t.Fatalf("wider strip must have lower L: %g vs %g", repW.InductancePH, repN.InductancePH)
	}
	// Doubling width roughly halves both.
	if r := repN.ResistanceOhms / repW.ResistanceOhms; r < 1.6 || r > 2.4 {
		t.Fatalf("width doubling R ratio = %g, want ~2", r)
	}
}

func TestExtractTallerDielectricHigherInductance(t *testing.T) {
	shape, terms := strip(100, 10, 5)
	lo, err := ExtractCtx(context.Background(), shape, terms, Options{HeightUM: 50})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ExtractCtx(context.Background(), shape, terms, Options{HeightUM: 200})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := hi.InductancePH / lo.InductancePH; math.Abs(ratio-4) > 0.01 {
		t.Fatalf("L must scale linearly with height: ratio = %g, want 4", ratio)
	}
	if hi.ResistanceOhms != lo.ResistanceOhms {
		t.Fatal("height must not affect DC resistance")
	}
}

func TestExtractLShapeHigherThanDirect(t *testing.T) {
	// An L-shaped detour between the same terminals is longer and thus
	// more resistive than a straight strip of the same width.
	direct, terms := strip(100, 10, 5)
	l := geom.RegionFromRects([]geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 100},
		{X0: 0, Y0: 90, X1: 100, Y1: 100},
	})
	lTerms := []route.Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 10, 5)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(95, 90, 100, 100)), Current: 1},
	}
	repD, err := ExtractCtx(context.Background(), direct, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repL, err := ExtractCtx(context.Background(), l, lTerms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if repL.ResistanceOhms <= repD.ResistanceOhms {
		t.Fatalf("L detour must be more resistive: %g vs %g", repL.ResistanceOhms, repD.ResistanceOhms)
	}
}

func TestExtractCurrentDensityPositive(t *testing.T) {
	shape, terms := strip(100, 10, 5)
	rep, err := ExtractCtx(context.Background(), shape, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxCurrentDensity <= 0 {
		t.Fatal("current density must be positive")
	}
	// Unit current through a 10-wide strip: density ~0.1 per unit width.
	if rep.MaxCurrentDensity < 0.05 || rep.MaxCurrentDensity > 0.5 {
		t.Fatalf("current density = %g, want ~0.1", rep.MaxCurrentDensity)
	}
}

func TestExtractMultiTerminalWeighting(t *testing.T) {
	// Three terminals: PMIC with high current plus two BGA groups.
	shape := geom.RegionFromRect(geom.R(0, 0, 100, 40))
	terms := []route.Terminal{
		{Name: "PMIC", Shape: geom.RegionFromRect(geom.R(0, 15, 5, 25)), Current: 10},
		{Name: "B1", Shape: geom.RegionFromRect(geom.R(95, 0, 100, 10)), Current: 5},
		{Name: "B2", Shape: geom.RegionFromRect(geom.R(95, 30, 100, 40)), Current: 5},
	}
	rep, err := ExtractCtx(context.Background(), shape, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PairResistanceOhms) != 3 {
		t.Fatalf("pairs = %d, want 3", len(rep.PairResistanceOhms))
	}
	for i, r := range rep.PairResistanceOhms {
		if r <= 0 {
			t.Fatalf("pair %d resistance = %g", i, r)
		}
	}
	// The weighted aggregate lies within the pair range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rep.PairResistanceOhms {
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if rep.ResistanceOhms < lo || rep.ResistanceOhms > hi {
		t.Fatalf("aggregate %g outside pair range [%g, %g]", rep.ResistanceOhms, lo, hi)
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := ExtractCtx(context.Background(), geom.EmptyRegion(), nil, Options{}); err == nil {
		t.Fatal("empty shape must error")
	}
	shape := geom.RegionFromRect(geom.R(0, 0, 10, 10))
	terms := []route.Terminal{{Name: "only", Shape: shape}}
	if _, err := ExtractCtx(context.Background(), shape, terms, Options{}); err == nil {
		t.Fatal("single terminal must error")
	}
}

// TestBadOptionsRejected pins that extraction and the DC operating point
// reject a negative, NaN or infinite option with an error naming the
// field, instead of defaulting it or solving with it.
func TestBadOptionsRejected(t *testing.T) {
	shape, terms := strip(100, 10, 5)
	extract := func(opt Options) error {
		_, err := ExtractCtx(context.Background(), shape, terms, opt)
		return err
	}
	dc := func(opt Options) error {
		_, err := DCOperate(context.Background(), shape, terms[0], terms[1:], 1, opt)
		return err
	}
	for _, tc := range []struct {
		name  string
		run   func(Options) error
		opt   Options
		field string
	}{
		{"extract NaN sheet", extract, Options{SheetOhms: math.NaN()}, "SheetOhms"},
		{"extract negative pitch", extract, Options{Pitch: -5}, "Pitch"},
		{"extract infinite height", extract, Options{HeightUM: math.Inf(1)}, "HeightUM"},
		{"DC negative sheet", dc, Options{SheetOhms: -0.001}, "SheetOhms"},
		{"DC NaN height", dc, Options{HeightUM: math.NaN()}, "HeightUM"},
		{"DC negative pitch", dc, Options{Pitch: -1}, "Pitch"},
	} {
		err := tc.run(tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
}

func TestExtractDefaultsApplied(t *testing.T) {
	shape, terms := strip(100, 10, 5)
	rep, err := ExtractCtx(context.Background(), shape, terms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes == 0 || rep.ResistanceOhms <= 0 || rep.InductancePH <= 0 {
		t.Fatalf("defaults produced bad report: %+v", rep)
	}
}
