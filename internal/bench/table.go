// Package bench implements the OpenDesc experiment harness: one function per
// experiment (EXPERIMENTS.md E1–E22), each regenerating the
// corresponding table as formatted text, and the registry (Experiments) that
// pins each one's parameters. `opendesc experiments` prints the registry; the
// package's tests run it and assert every deterministic cell exactly. Nothing here gates
// on a wall clock: timings in a table are context, the tracked numbers are
// cmd/benchmark's.
package bench

import (
	"fmt"
	"math"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string

	// run is the typed measurement the rows were rendered from (*e15Run,
	// *e19Result, ...), nil for tables built cell by cell. The tests assert
	// on it, never on a formatted cell.
	run any
}

// AddRow appends a row; values are stringified with %v. Large-magnitude
// floats switch to %.4g so a runaway value widens its column readably
// instead of printing dozens of digits.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			if math.Abs(x) >= 1e15 || math.IsInf(x, 0) || math.IsNaN(x) {
				row[i] = fmt.Sprintf("%.4g", x)
			} else {
				row[i] = fmt.Sprintf("%.1f", x)
			}
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// columns is the table's true column count: the widest of the header and
// every row, so a row with more cells than the header widens the table
// instead of panicking or silently truncating.
func (t *Table) columns() int {
	n := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

// widths computes per-column display widths over header and all rows.
func (t *Table) widths() []int {
	w := make([]int, t.columns())
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	return w
}

// String renders the table with aligned columns. Column widths adapt to the
// widest cell (header or row) so no value is ever clipped, and ragged rows
// — shorter or longer than the header — render with empty padding cells
// rather than disagreeing between output formats.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(&sb, "   %s\n", line)
		}
	}
	widths := t.widths()
	writeRow := func(cells []string) {
		for i := 0; i < len(widths); i++ {
			if i > 0 {
				sb.WriteString("  ")
			}
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
