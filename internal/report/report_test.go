package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table II", "Net", "Manual", "SPROUT")
	tab.AddRow("VDD1", 100.0, 87.5)
	tab.AddRow("VDD2", 136, 138)
	out := tab.String()
	if !strings.Contains(out, "Table II") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "VDD1") || !strings.Contains(out, "87.5") {
		t.Fatalf("missing data: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Columns align: header "Net" padded to width of "VDD1".
	if !strings.HasPrefix(lines[1], "Net ") {
		t.Fatalf("header misaligned: %q", lines[1])
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := NewTable("", "v")
	tab.AddRow(0.00012345)
	if !strings.Contains(tab.String(), "0.0001234") {
		t.Fatalf("float formatting: %s", tab.String())
	}
}
