// Package svgout renders board layouts to SVG so the synthesized shapes of
// Figs. 8-11 can be inspected visually. It draws regions either as their
// canonical rectangles or as traced boundary polygons (with holes via the
// even-odd fill rule), plus hatched blockages, terminal markers and labels.
// Output is deterministic for identical inputs.
package svgout

import (
	"fmt"
	"io"
	"os"
	"strings"

	"sprout/internal/geom"
)

// Style holds SVG presentation attributes for one drawn element.
type Style struct {
	Fill        string  // CSS color; "" means none
	Stroke      string  // CSS color; "" means none
	StrokeWidth float64 // user units
	Opacity     float64 // 0 defaults to 1
	Hatch       bool    // diagonal hatch pattern instead of solid fill
}

func (s Style) attrs(c *Canvas) string {
	var sb strings.Builder
	fill := s.Fill
	if s.Hatch {
		id := c.ensureHatch(s.Fill)
		fill = fmt.Sprintf("url(#%s)", id)
	}
	if fill == "" {
		fill = "none"
	}
	fmt.Fprintf(&sb, ` fill=%q`, fill)
	if s.Stroke != "" {
		fmt.Fprintf(&sb, ` stroke=%q stroke-width="%g"`, s.Stroke, nonZero(s.StrokeWidth, 1))
	}
	if s.Opacity > 0 && s.Opacity < 1 {
		fmt.Fprintf(&sb, ` opacity="%g"`, s.Opacity)
	}
	return sb.String()
}

func nonZero(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Canvas accumulates SVG elements over a fixed view box.
type Canvas struct {
	view    geom.Rect
	defs    []string
	body    []string
	hatches map[string]string
}

// New creates a canvas covering the view rectangle. The y axis is flipped
// so that +y points up, matching board coordinates.
func New(view geom.Rect) *Canvas {
	return &Canvas{view: view, hatches: map[string]string{}}
}

// ensureHatch registers a diagonal hatch pattern for the color and returns
// its id.
func (c *Canvas) ensureHatch(color string) string {
	if color == "" {
		color = "#888"
	}
	if id, ok := c.hatches[color]; ok {
		return id
	}
	id := fmt.Sprintf("hatch%d", len(c.hatches))
	c.hatches[color] = id
	c.defs = append(c.defs, fmt.Sprintf(
		`<pattern id=%q width="6" height="6" patternTransform="rotate(45)" patternUnits="userSpaceOnUse">`+
			`<rect width="6" height="6" fill="white"/><line x1="0" y1="0" x2="0" y2="6" stroke=%q stroke-width="2.5"/></pattern>`,
		id, color))
	return id
}

// Region draws a region as its traced boundary polygons with even-odd
// holes.
func (c *Canvas) Region(g geom.Region, st Style) {
	if g.Empty() {
		return
	}
	var d strings.Builder
	for _, loop := range g.Trace() {
		for i, p := range loop.V {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&d, "%s%d %d ", cmd, p.X, c.flipY(p.Y))
		}
		d.WriteString("Z ")
	}
	c.body = append(c.body, fmt.Sprintf(`<path d=%q fill-rule="evenodd"%s/>`,
		strings.TrimSpace(d.String()), st.attrs(c)))
}

// Rect draws a single rectangle.
func (c *Canvas) Rect(r geom.Rect, st Style) {
	if r.Empty() {
		return
	}
	c.body = append(c.body, fmt.Sprintf(`<rect x="%d" y="%d" width="%d" height="%d"%s/>`,
		r.X0, c.flipY(r.Y1), r.W(), r.H(), st.attrs(c)))
}

// Circle draws a circle marker.
func (c *Canvas) Circle(center geom.Point, radius int64, st Style) {
	c.body = append(c.body, fmt.Sprintf(`<circle cx="%d" cy="%d" r="%d"%s/>`,
		center.X, c.flipY(center.Y), radius, st.attrs(c)))
}

// Text places a label at p.
func (c *Canvas) Text(p geom.Point, size int64, color, text string) {
	c.body = append(c.body, fmt.Sprintf(`<text x="%d" y="%d" font-size="%d" fill=%q font-family="sans-serif">%s</text>`,
		p.X, c.flipY(p.Y), size, color, escape(text)))
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// HeatColor maps a fraction in [0,1] onto a cold-to-hot ramp
// (deep blue → cyan → yellow → red), for IR-drop and thermal maps.
// Out-of-range values clamp.
func HeatColor(frac float64) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// Piecewise-linear ramp over four anchor colors.
	anchors := [][3]int{
		{20, 40, 160},  // deep blue
		{40, 200, 220}, // cyan
		{250, 220, 50}, // yellow
		{210, 30, 30},  // red
	}
	pos := frac * float64(len(anchors)-1)
	i := int(pos)
	if i >= len(anchors)-1 {
		i = len(anchors) - 2
	}
	t := pos - float64(i)
	lerp := func(a, b int) int { return a + int(t*float64(b-a)) }
	c0, c1 := anchors[i], anchors[i+1]
	return fmt.Sprintf("#%02x%02x%02x", lerp(c0[0], c1[0]), lerp(c0[1], c1[1]), lerp(c0[2], c1[2]))
}

// HeatMap draws per-cell values as a heat ramp: the union of the
// rectangles cells[i] filled with HeatColor(values[i]/maxVal). Zero or
// negative maxVal auto-scales to the data maximum.
func (c *Canvas) HeatMap(cells [][]geom.Rect, values []float64, maxVal float64) {
	if maxVal <= 0 {
		for _, v := range values {
			if v > maxVal {
				maxVal = v
			}
		}
		if maxVal <= 0 {
			maxVal = 1
		}
	}
	for i, cell := range cells {
		if i >= len(values) {
			break
		}
		c.Region(geom.RegionFromRects(cell), Style{Fill: HeatColor(values[i] / maxVal)})
	}
}

// flipY converts board y (up) to SVG y (down) within the view box.
func (c *Canvas) flipY(y int64) int64 {
	return c.view.Y0 + c.view.Y1 - y
}

// WriteTo emits the SVG document.
func (c *Canvas) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="%d %d %d %d">`,
		c.view.X0, c.view.Y0, c.view.W(), c.view.H())
	sb.WriteString("\n")
	if len(c.defs) > 0 {
		sb.WriteString("<defs>\n")
		for _, d := range c.defs {
			sb.WriteString(d)
			sb.WriteString("\n")
		}
		sb.WriteString("</defs>\n")
	}
	for _, b := range c.body {
		sb.WriteString(b)
		sb.WriteString("\n")
	}
	sb.WriteString("</svg>\n")
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteFile writes the SVG document to path.
func (c *Canvas) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("svgout: %w", err)
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("svgout: %w", err)
	}
	return f.Close()
}
