package extract

import (
	"math"
	"testing"
)

func typicalVia() ViaSpec {
	// 0.2 mm drill, 25 µm plating, 0.8 mm span — a standard through via.
	return ViaSpec{DrillUM: 200, PlatingUM: 25, LengthUM: 800}
}

func TestViaResistanceBallpark(t *testing.T) {
	r, err := typicalVia().ResistanceOhms()
	if err != nil {
		t.Fatal(err)
	}
	// Annulus area ~ π(125² - 100²) ≈ 17671 µm²;
	// R = 0.0172·800/17671 ≈ 0.78 mΩ.
	if r < 0.0004 || r > 0.0015 {
		t.Fatalf("via R = %g Ω, want ~0.78 mΩ", r)
	}
}

func TestViaInductanceBallpark(t *testing.T) {
	l, err := typicalVia().InductancePH()
	if err != nil {
		t.Fatal(err)
	}
	// Standard result: a 0.8 mm via is a few hundred pH.
	if l < 100 || l > 600 {
		t.Fatalf("via L = %g pH, want a few hundred", l)
	}
}

func TestViaScaling(t *testing.T) {
	short := ViaSpec{DrillUM: 200, PlatingUM: 25, LengthUM: 200}
	long := ViaSpec{DrillUM: 200, PlatingUM: 25, LengthUM: 1600}
	rs, _ := short.ResistanceOhms()
	rl, _ := long.ResistanceOhms()
	if math.Abs(rl/rs-8) > 1e-9 {
		t.Fatalf("R must scale linearly with length: ratio %g", rl/rs)
	}
	ls, _ := short.InductancePH()
	ll, _ := long.InductancePH()
	if ll <= ls {
		t.Fatal("longer via must be more inductive")
	}
	fat := ViaSpec{DrillUM: 400, PlatingUM: 25, LengthUM: 800}
	lf, _ := fat.InductancePH()
	lt, _ := typicalVia().InductancePH()
	if lf >= lt {
		t.Fatal("fatter via must be less inductive")
	}
}

func TestViaValidation(t *testing.T) {
	bad := []ViaSpec{
		{DrillUM: 0, PlatingUM: 25, LengthUM: 800},
		{DrillUM: 200, PlatingUM: 0, LengthUM: 800},
		{DrillUM: 200, PlatingUM: 25, LengthUM: 0},
	}
	for _, v := range bad {
		if _, err := v.ResistanceOhms(); err == nil {
			t.Fatalf("spec %+v must be rejected", v)
		}
		if _, err := v.InductancePH(); err == nil {
			t.Fatalf("spec %+v must be rejected", v)
		}
	}
	// Stubby via clamps the log instead of going negative.
	stub := ViaSpec{DrillUM: 800, PlatingUM: 25, LengthUM: 100}
	l, err := stub.InductancePH()
	if err != nil || l < 0 {
		t.Fatalf("stub via L = %g err=%v", l, err)
	}
}
