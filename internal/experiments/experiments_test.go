package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFig8StagesImprove verifies the Fig. 8 storyline: every stage of the
// pipeline leaves resistance no worse than the seed, and the final shape
// is substantially better.
func TestFig8StagesImprove(t *testing.T) {
	res, err := RunFig8("")
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Result.Trace
	seed := trace[0].Resistance
	if res.Result.Resistance > 0.85*seed {
		t.Fatalf("pipeline should cut resistance well below seed: %g vs %g",
			res.Result.Resistance, seed)
	}
	for _, rec := range trace {
		if rec.Stage == "dilate" {
			continue // dilation legitimately exceeds the budget temporarily
		}
		if rec.Stage == "refine" || rec.Stage == "erode" || rec.Stage == "restore" {
			if rec.Area > trace[len(trace)-1].Area+footprintSlack {
				t.Fatalf("stage %s area %d exceeds the budgeted area", rec.Stage, rec.Area)
			}
		}
	}
}

const footprintSlack = 400 // one grow batch of tiles

func TestFig8WritesSVGs(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunFig8(dir); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig8_*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("stage snapshots = %d, want 5", len(matches))
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("snapshot is not SVG")
	}
}

// TestTable2Agreement checks the headline Table II claim: SPROUT tracks
// the manual layout within a few percent on both R and L.
func TestTable2Agreement(t *testing.T) {
	res, err := RunTable2("")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		rRatio := row.SproutRmOhm / row.ManualRmOhm
		if rRatio > 1.15 || rRatio < 0.8 {
			t.Fatalf("net %s R ratio %g outside paper-like band (paper: <=3.1%% diff)", row.Net, rRatio)
		}
		lRatio := row.SproutLpH / row.ManualLpH
		if lRatio > 1.15 || lRatio < 0.8 {
			t.Fatalf("net %s L ratio %g outside paper-like band", row.Net, lRatio)
		}
	}
}

// TestTable3Agreement checks the six-rail claim: comparable impedance,
// SPROUT at least as good as manual on several rails.
func TestTable3Agreement(t *testing.T) {
	res, err := RunTable3("")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	wins := 0
	for _, row := range res.Rows {
		ratio := row.SproutRmOhm / row.ManualRmOhm
		if ratio <= 1.0 {
			wins++
		}
		if ratio > 1.6 {
			t.Fatalf("net %s R ratio %g far above manual", row.Net, ratio)
		}
	}
	if wins < 2 {
		t.Fatalf("SPROUT should win on several congested rails, won %d", wins)
	}
}

// TestSweepTrends verifies every Fig. 12 trend the paper reports.
func TestSweepTrends(t *testing.T) {
	res, err := RunSweep("")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layouts) != 9 {
		t.Fatalf("layouts = %d, want 9", len(res.Layouts))
	}
	for _, name := range []string{"MODEM", "CPU", "DSP"} {
		// Fig. 12a: resistance falls with area (small tolerance for the
		// stochasticity of congested routing).
		r := res.Series(name, func(sr SweepRail) float64 { return sr.RmOhm })
		if len(r.Y) != 9 {
			t.Fatalf("%s resistance series has %d points", name, len(r.Y))
		}
		if r.Y[8] >= r.Y[0] {
			t.Fatalf("%s resistance must fall across the sweep: %v", name, r.Y)
		}
		// Diminishing returns: the drop over the first half exceeds the
		// drop over the second half.
		firstDrop := r.Y[0] - r.Y[4]
		secondDrop := r.Y[4] - r.Y[8]
		if firstDrop <= secondDrop {
			t.Fatalf("%s resistance lacks diminishing returns: first %g second %g", name, firstDrop, secondDrop)
		}
		// Fig. 12c: minimum load voltage rises overall.
		v := res.Series(name, func(sr SweepRail) float64 { return sr.VminV })
		if v.Y[8] <= v.Y[0] {
			t.Fatalf("%s min voltage must rise with area: %v", name, v.Y)
		}
		// Fig. 12d: delay falls overall.
		d := res.Series(name, func(sr SweepRail) float64 { return sr.DelayNorm })
		if d.Y[8] >= d.Y[0] {
			t.Fatalf("%s delay must fall with area: %v", name, d.Y)
		}
		for _, y := range v.Y {
			if y <= 0.5 || y >= 1 {
				t.Fatalf("%s implausible vmin %g", name, y)
			}
		}
	}
	// Fig. 12b: DSP (no decaps) gains far more inductance reduction than
	// the decap-protected modem rail, relatively.
	dsp := res.Series("DSP", func(sr SweepRail) float64 { return sr.EffLpH })
	modem := res.Series("MODEM", func(sr SweepRail) float64 { return sr.EffLpH })
	dspGain := (dsp.Y[0] - dsp.Y[8]) / dsp.Y[0]
	modemTail := (modem.Y[2] - modem.Y[8]) / modem.Y[2] // after the initial settling
	if dspGain < 0.3 {
		t.Fatalf("DSP effective L should fall >30%% across the sweep, got %.0f%%", dspGain*100)
	}
	if modemTail > dspGain {
		t.Fatalf("decaps should pin the modem L (modem %.0f%% vs DSP %.0f%%)",
			modemTail*100, dspGain*100)
	}
	// All effective inductances must be physical (positive).
	for _, l := range [][]float64{dsp.Y, modem.Y} {
		for _, y := range l {
			if y <= 0 {
				t.Fatalf("non-physical effective inductance %g", y)
			}
		}
	}
}

// TestRuntimeScaling verifies the §II-H analysis: node count grows as the
// tile size shrinks, and the fitted solve exponent is in a plausible band.
func TestRuntimeScaling(t *testing.T) {
	res, err := RunRuntime()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Nodes <= res.Points[i-1].Nodes {
			t.Fatalf("node count must grow as tiles shrink: %+v", res.Points)
		}
	}
	// Discretization convergence: every tile size must agree with the
	// finest within a modest band (coarse tiles under-resolve the
	// constriction at the terminals).
	finest := res.Points[len(res.Points)-1].ResistanceR
	for _, p := range res.Points {
		if p.ResistanceR < 0.7*finest || p.ResistanceR > 1.3*finest {
			t.Fatalf("tile %d resistance %g outside 30%% of finest %g", p.TileDX, p.ResistanceR, finest)
		}
	}
	// Solve-cost exponent: CG with warm grids lands near the paper's
	// lower bound; allow a broad physical band.
	if res.QFit < 0.5 || res.QFit > 3.5 {
		t.Fatalf("fitted exponent q = %g outside [0.5, 3.5]", res.QFit)
	}
}

// TestMultilayerExperiment checks the via decomposition invariants.
func TestMultilayerExperiment(t *testing.T) {
	dir := t.TempDir()
	res, err := RunMultilayer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalVias < 2 {
		t.Fatalf("vias = %d, want >= 2 (down and back up)", res.TotalVias)
	}
	if len(res.LayersUsed) != 2 {
		t.Fatalf("layers used = %v, want both", res.LayersUsed)
	}
	svgs, _ := filepath.Glob(filepath.Join(dir, "fig13_layer*.svg"))
	if len(svgs) != 2 {
		t.Fatalf("layer SVGs = %d, want 2", len(svgs))
	}
}

// TestAblationOrdering verifies the design-choice claims: the node-current
// metric beats uniform growth, growth beats the bare seed, and refinement
// does not hurt.
func TestAblationOrdering(t *testing.T) {
	res, err := RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) AblationRow {
		for _, row := range res.Rows {
			if strings.HasPrefix(row.Name, name) {
				return row
			}
		}
		t.Fatalf("missing ablation row %q", name)
		return AblationRow{}
	}
	seed := get("seed-only")
	uniform := get("uniform-grow")
	growOnly := get("grow-only")
	growRefine := get("grow+refine")
	full := get("full+reheat")

	if growOnly.Resistance >= seed.Resistance {
		t.Fatalf("growth must beat the seed: %g vs %g", growOnly.Resistance, seed.Resistance)
	}
	if growRefine.Resistance > growOnly.Resistance*1.001 {
		t.Fatalf("refinement must not hurt: %g vs %g", growRefine.Resistance, growOnly.Resistance)
	}
	if full.Resistance > growRefine.Resistance*1.001 {
		t.Fatalf("reheat must not hurt (best-restore guard): %g vs %g",
			full.Resistance, growRefine.Resistance)
	}
	if growRefine.Resistance > uniform.Resistance*1.05 {
		t.Fatalf("node-current growth should not lose to uniform dilation: %g vs %g",
			growRefine.Resistance, uniform.Resistance)
	}
}

// TestHeatmapsExperiment verifies the E11 physical relationships: the CPU
// rail (highest current) dissipates the most power and runs the hottest,
// and every Vmin stays physical.
func TestHeatmapsExperiment(t *testing.T) {
	dir := t.TempDir()
	res, err := RunHeatmaps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rails) != 3 {
		t.Fatalf("rails = %d", len(res.Rails))
	}
	byName := map[string]HeatRail{}
	for _, r := range res.Rails {
		byName[r.Name] = r
		if r.MinVoltage <= 0.9 || r.MinVoltage >= 1 {
			t.Fatalf("rail %s Vmin %g implausible", r.Name, r.MinVoltage)
		}
		if r.MaxRiseC <= 0 || r.MaxRiseC > 50 {
			t.Fatalf("rail %s rise %g K implausible", r.Name, r.MaxRiseC)
		}
	}
	cpu, dsp := byName["CPU"], byName["DSP"]
	if cpu.TotalPowerMW <= dsp.TotalPowerMW {
		t.Fatalf("CPU must dissipate more than DSP: %g vs %g mW", cpu.TotalPowerMW, dsp.TotalPowerMW)
	}
	if cpu.MaxRiseC <= dsp.MaxRiseC {
		t.Fatalf("CPU must run hotter than DSP: %g vs %g K", cpu.MaxRiseC, dsp.MaxRiseC)
	}
	svgs, _ := filepath.Glob(filepath.Join(dir, "*drop_*.svg"))
	if len(svgs) != 3 {
		t.Fatalf("IR maps = %d, want 3", len(svgs))
	}
}

// TestHeatmapSVGsPinned pins the bytes of the IR-drop and thermal maps
// RunHeatmaps writes for every rail of the middle Table IV layout. The
// maps draw each tile graph node's cell, so a change to how the cells are
// stored must leave every byte as it was.
func TestHeatmapSVGsPinned(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunHeatmaps(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"irdrop_CPU.svg":    "9690b5eed5dcccc443e6bbc78d6149507ae0ff4b592a277fdf61e786bc9fe53b",
		"irdrop_DSP.svg":    "ee6a00f375e303e40e867a942fbed5e2304896c240f72335b72b05b05f3445f8",
		"irdrop_MODEM.svg":  "d61477ab852b7bcaaec977efeb1e531a745690d939d9a23c96e6af50d1703c27",
		"thermal_CPU.svg":   "d3d165ecc856fe8869b49e077f949924f1b82ca2cee2cfeefa1256acc2c462d0",
		"thermal_DSP.svg":   "af010387bd8eb83bcc5d112533afbbac6e7bdb1a2e8a8a2291e5dd0ab038bc23",
		"thermal_MODEM.svg": "ded4cf3399bfec1d862c02eff3da2279d8163f8ff7ef6cd96d22c206a7922774",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, pinned %s", name, sum, want)
		}
	}
}

// TestPrintersProduceTables smoke-tests every printing entry point.
func TestPrintersProduceTables(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Fig8(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Multilayer(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Ablation(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 8", "Table II", "Alg. 6", "ablation", "VDD1", "SPROUT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("combined output missing %q", want)
		}
	}
}

// TestPrintersSweepAndHeavy covers the remaining printing entry points:
// Table III, the sweep tables (Table IV, Fig. 12), the runtime study and
// the heat maps.
func TestPrintersSweepAndHeavy(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Table3(&buf, ""); err != nil {
		t.Fatal(err)
	}
	sweep, err := RunSweep("")
	if err != nil {
		t.Fatal(err)
	}
	if err := Table4(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	if err := Fig12(&buf, sweep); err != nil {
		t.Fatal(err)
	}
	if _, err := Runtime(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Heatmaps(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table III", "V4", "wall clock",
		"Table IV", "Fig. 12a", "Fig. 12d",
		"exponent q", "IC(0)",
		"hotspot",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("combined output missing %q", want)
		}
	}
}
