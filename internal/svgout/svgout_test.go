package svgout

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprout/internal/geom"
)

func render(t *testing.T, fn func(c *Canvas)) string {
	t.Helper()
	c := New(geom.R(0, 0, 100, 100))
	fn(c)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSVGDocumentStructure(t *testing.T) {
	out := render(t, func(c *Canvas) {
		c.Rect(geom.R(10, 10, 20, 20), Style{Fill: "#f00"})
	})
	if !strings.HasPrefix(out, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 100 100">`) {
		t.Fatalf("missing svg header: %q", out[:60])
	}
	if !strings.Contains(out, "</svg>") {
		t.Fatal("missing closing tag")
	}
	if !strings.Contains(out, `<rect x="10" y="80" width="10" height="10"`) {
		t.Fatalf("rect not flipped/placed correctly: %s", out)
	}
}

func TestSVGRegionPath(t *testing.T) {
	g := geom.RegionFromRect(geom.R(0, 0, 10, 10)).
		Subtract(geom.RegionFromRect(geom.R(4, 4, 6, 6)))
	out := render(t, func(c *Canvas) {
		c.Region(g, Style{Fill: "#0a0", Stroke: "#000"})
	})
	if !strings.Contains(out, `fill-rule="evenodd"`) {
		t.Fatal("region path must use even-odd fill for holes")
	}
	// Two loops -> two Z closures in one path.
	if strings.Count(out, "Z") != 2 {
		t.Fatalf("expected 2 loop closures, got %d in %s", strings.Count(out, "Z"), out)
	}
}

func TestSVGHatchPattern(t *testing.T) {
	out := render(t, func(c *Canvas) {
		c.Rect(geom.R(0, 0, 10, 10), Style{Fill: "#00f", Hatch: true})
		c.Rect(geom.R(20, 0, 30, 10), Style{Fill: "#00f", Hatch: true})
		c.Rect(geom.R(40, 0, 50, 10), Style{Fill: "#0f0", Hatch: true})
	})
	// Two distinct colors -> two patterns, reused for the same color.
	if strings.Count(out, "<pattern") != 2 {
		t.Fatalf("expected 2 hatch patterns, got %d", strings.Count(out, "<pattern"))
	}
	if !strings.Contains(out, `fill="url(#hatch0)"`) {
		t.Fatal("hatch fill reference missing")
	}
}

func TestSVGTextEscaping(t *testing.T) {
	out := render(t, func(c *Canvas) {
		c.Text(geom.Pt(5, 5), 10, "#000", "V<1> & more")
	})
	if !strings.Contains(out, "V&lt;1&gt; &amp; more") {
		t.Fatalf("text not escaped: %s", out)
	}
}

func TestSVGCircleAndEmpty(t *testing.T) {
	out := render(t, func(c *Canvas) {
		c.Circle(geom.Pt(50, 50), 4, Style{Fill: "#000"})
		c.Region(geom.EmptyRegion(), Style{Fill: "#f00"}) // no-op
		c.Rect(geom.Rect{}, Style{Fill: "#f00"})          // no-op
	})
	if !strings.Contains(out, `<circle cx="50" cy="50" r="4"`) {
		t.Fatalf("circle missing: %s", out)
	}
	if strings.Contains(out, "#f00") {
		t.Fatal("empty geometry must not be drawn")
	}
}

func TestSVGWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.svg")
	c := New(geom.R(0, 0, 10, 10))
	c.Rect(geom.R(1, 1, 2, 2), Style{Fill: "#000"})
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("file content missing svg")
	}
	if err := c.WriteFile(filepath.Join(dir, "missing", "out.svg")); err == nil {
		t.Fatal("unwritable path must error")
	}
}

func TestHeatColorRamp(t *testing.T) {
	cold := HeatColor(0)
	hot := HeatColor(1)
	if cold != "#1428a0" {
		t.Fatalf("cold = %s", cold)
	}
	if hot != "#d21e1e" {
		t.Fatalf("hot = %s", hot)
	}
	// Clamping.
	if HeatColor(-1) != cold || HeatColor(2) != hot {
		t.Fatal("out-of-range values must clamp")
	}
	// Mid values differ from both ends.
	mid := HeatColor(0.5)
	if mid == cold || mid == hot {
		t.Fatalf("mid = %s must differ from the ends", mid)
	}
}

func TestHeatMapRendersCells(t *testing.T) {
	cells := [][]geom.Rect{
		{geom.R(0, 0, 10, 10)},
		{geom.R(20, 0, 25, 10), geom.R(25, 0, 30, 10)},
	}
	out := render(t, func(c *Canvas) {
		c.HeatMap(cells, []float64{0, 5}, 0) // auto-scale to 5
	})
	if strings.Count(out, "<path") != 2 {
		t.Fatalf("want 2 heat cells:\n%s", out)
	}
	if !strings.Contains(out, HeatColor(0)) || !strings.Contains(out, HeatColor(1)) {
		t.Fatalf("extreme colors missing:\n%s", out)
	}
	// All-zero values must not divide by zero.
	_ = render(t, func(c *Canvas) { c.HeatMap(cells, []float64{0, 0}, 0) })
}

func TestSVGDeterministic(t *testing.T) {
	gen := func() string {
		return render(t, func(c *Canvas) {
			c.Region(geom.RegionFromRect(geom.R(0, 0, 30, 30)), Style{Fill: "#abc", Hatch: true})
			c.Text(geom.Pt(2, 2), 8, "#000", "label")
		})
	}
	if gen() != gen() {
		t.Fatal("rendering must be deterministic")
	}
}
