// Package metrics collects experiment results into labeled tables and
// renders them as aligned text or CSV — the repository's equivalent of the
// paper's figures.
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a result grid: one row per x value (client count, record size,
// thread count, …), one column per configuration (NoCache, MCD(1), …).
type Table struct {
	Title   string
	XLabel  string
	YLabel  string
	Columns []string
	rows    []row
}

type row struct {
	x      string
	values []float64
}

// NewTable returns an empty table with the given column (series) names.
func NewTable(title, xLabel, yLabel string, columns ...string) *Table {
	return &Table{Title: title, XLabel: xLabel, YLabel: yLabel, Columns: columns}
}

// AddRow appends a row; values must match the column count.
func (t *Table) AddRow(x string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row has %d values, table has %d columns", len(values), len(t.Columns)))
	}
	t.rows = append(t.rows, row{x: x, values: values})
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Value returns the cell at data row i, column named col.
func (t *Table) Value(i int, col string) float64 {
	for j, c := range t.Columns {
		if c == col {
			return t.rows[i].values[j]
		}
	}
	panic("metrics: no column " + col)
}

// X returns the x label of data row i.
func (t *Table) X(i int) string { return t.rows[i].x }

// LastRow returns the final row's values keyed by column.
func (t *Table) LastRow() map[string]float64 {
	if len(t.rows) == 0 {
		return nil
	}
	out := make(map[string]float64, len(t.Columns))
	last := t.rows[len(t.rows)-1]
	for j, c := range t.Columns {
		out[c] = last.values[j]
	}
	return out
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintf(w, "# y: %s\n", t.YLabel)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	cells := make([][]string, len(t.rows))
	for i, r := range t.rows {
		cells[i] = make([]string, len(r.values)+1)
		cells[i][0] = r.x
		if len(r.x) > widths[0] {
			widths[0] = len(r.x)
		}
		for j, v := range r.values {
			s := FormatValue(v)
			cells[i][j+1] = s
			if len(s) > widths[j+1] {
				widths[j+1] = len(s)
			}
		}
	}
	for j, c := range t.Columns {
		if len(c) > widths[j+1] {
			widths[j+1] = len(c)
		}
	}
	fmt.Fprintf(w, "%-*s", widths[0], t.XLabel)
	for j, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", widths[j+1], c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", sum(widths)+2*len(widths)))
	for _, cl := range cells {
		fmt.Fprintf(w, "%-*s", widths[0], cl[0])
		for j := 1; j < len(cl); j++ {
			fmt.Fprintf(w, "  %*s", widths[j], cl[j])
		}
		fmt.Fprintln(w)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "%s", csvEscape(t.XLabel))
	for _, c := range t.Columns {
		fmt.Fprintf(w, ",%s", csvEscape(c))
	}
	fmt.Fprintln(w)
	for _, r := range t.rows {
		fmt.Fprintf(w, "%s", csvEscape(r.x))
		for _, v := range r.values {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
}

// FormatValue renders a table cell or axis label: three significant
// digits from a million up, whole numbers from 100, two decimals from 1,
// four below. Every view of a table — text, plot, HTML report — formats
// through it, so they agree digit for digit.
func FormatValue(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6:
		return strconv.FormatFloat(v, 'g', 3, 64)
	case av >= 100:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case av >= 1:
		return strconv.FormatFloat(v, 'f', 2, 64)
	default:
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Reduction returns the fractional reduction of b versus a: (a-b)/a.
// It is the paper's "X% lower than" metric.
func Reduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}
