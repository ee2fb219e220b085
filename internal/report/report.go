// Package report renders experiment results as aligned text tables (the
// form the paper's tables take) and CSV (for regenerating the figures
// with any plotting tool).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string // "table2", "fig3", ...
	Title   string
	Note    string // provenance / caveats, printed under the title
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "   %s\n", t.Note); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Fprint(&b)
	return b.String()
}

// CSV writes the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatFloat renders a float compactly (three significant decimals,
// trimming trailing zeros).
func FormatFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// FormatPct renders a fraction as a percentage.
func FormatPct(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// FormatRate renders a bytes-per-second rate in decimal units (the paper
// reports MB/s).
func FormatRate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f GB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.1f MB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1f KB/s", bps/1e3)
	}
	return fmt.Sprintf("%.0f B/s", bps)
}
