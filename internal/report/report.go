// Package report renders aligned plain-text tables and series for the
// experiment harness, so every paper table and figure regenerates as a
// readable console artifact.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders to a string, for tests.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// Series is a labelled (x, y) sequence standing in for a figure curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}
