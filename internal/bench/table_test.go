package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestTableLargeValues: values wider than their header must stretch the
// column, never clip or panic, and huge floats render compactly.
func TestTableLargeValues(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "width audit",
		Header: []string{"a", "b"},
	}
	long := strings.Repeat("x", 200)
	tab.AddRow(long, 1.5)
	tab.AddRow("short", 12345678901234567890.0) // > 1e15 → %.4g
	tab.AddRow(3, math.Inf(1))
	out := tab.String()
	if !strings.Contains(out, long) {
		t.Error("long cell clipped")
	}
	if !strings.Contains(out, "1.235e+19") {
		t.Errorf("huge float not compacted:\n%s", out)
	}
	if !strings.Contains(out, "+Inf") {
		t.Errorf("Inf not rendered:\n%s", out)
	}
	// Every rendered body line must be at least as wide as the longest cell.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, l := range lines[1:] { // skip the title line
		if len(l) < len(long) {
			t.Errorf("line narrower than widest cell: %q", l)
		}
	}
}

// TestTableRaggedRows: rows longer or shorter than the header must render
// (the longer row previously panicked: widths were sized to the header).
func TestTableRaggedRows(t *testing.T) {
	tab := &Table{ID: "T", Title: "ragged", Header: []string{"a", "b"}}
	tab.AddRow("only")
	tab.AddRow("one", "two", "three-wide-extra")
	var out string
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("String() panicked on ragged rows: %v", r)
			}
		}()
		out = tab.String()
	}()
	if !strings.Contains(out, "three-wide-extra") {
		t.Errorf("extra column dropped:\n%s", out)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "three-wide-extra") {
		t.Errorf("markdown dropped the extra column:\n%s", md)
	}
}

// mdCells parses the body cells out of a Markdown rendering.
func mdCells(md string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		// Protect escaped pipes from the cell split, then restore them.
		const sentinel = "\x00"
		trimmed := strings.Trim(strings.ReplaceAll(line, `\|`, sentinel), "|")
		if strings.Trim(strings.ReplaceAll(trimmed, "-", ""), "| ") == "" {
			continue // separator row
		}
		var cells []string
		for _, c := range strings.Split(trimmed, "|") {
			cells = append(cells, strings.ReplaceAll(strings.TrimSpace(c), sentinel, "|"))
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestTableRendersAgree: the text and markdown frames must carry identical
// cell content — headers, every row, every column — so the human and
// machine views cannot drift.
func TestTableRendersAgree(t *testing.T) {
	tab := &Table{ID: "T", Title: "agree", Header: []string{"col-a", "col-b", "col-c"}}
	tab.AddRow("x", 1.25, "a|b") // a pipe to exercise escaping
	tab.AddRow("yyyyyyyyyyyyyyyyyyyy", 2, "z")
	got := mdCells(tab.Markdown())
	want := append([][]string{tab.Header}, tab.Rows...)
	if len(got) != len(want) {
		t.Fatalf("markdown rows = %d, want %d", len(got), len(want))
	}
	text := tab.String()
	for i, row := range want {
		for j, cell := range row {
			if got[i][j] != cell {
				t.Errorf("markdown[%d][%d] = %q, want %q", i, j, got[i][j], cell)
			}
			if !strings.Contains(text, cell) {
				t.Errorf("text rendering missing cell %q", cell)
			}
		}
	}
}

// Markdown renders the same cells as a GitHub-flavored markdown table.
// It shares cell content with String (only the frame differs), so the two
// renderings cannot disagree; TestTableRendersAgree enforces this.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s: %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(&sb, "> %s\n", line)
		}
		sb.WriteString("\n")
	}
	cols := t.columns()
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = strings.ReplaceAll(cells[i], "|", `\|`)
			}
			sb.WriteString(" " + c + " |")
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sb.WriteString("|")
	for i := 0; i < cols; i++ {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
