// Package report renders experiment results as fixed-width text tables, so
// every figure and table the harness regenerates is produced through one
// tested formatting path.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; missing cells render empty, extra cells widen the
// table.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// columns returns the width of each column.
func (t *Table) columns() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	return w
}

// Fprint writes the table as aligned text. The first column is left-aligned
// (labels), the rest right-aligned (numbers).
func (t *Table) Fprint(w io.Writer) error {
	widths := t.columns()
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				b.WriteString(pad(c, width, false))
			} else {
				b.WriteString(pad(c, width, true))
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if len(t.Headers) > 0 {
		if err := line(t.Headers); err != nil {
			return err
		}
		rule := make([]string, len(widths))
		for i, width := range widths {
			rule[i] = strings.Repeat("-", width)
		}
		if err := line(rule); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, width int, right bool) string {
	if len(s) >= width {
		return s
	}
	fill := strings.Repeat(" ", width-len(s))
	if right {
		return fill + s
	}
	return s + fill
}
