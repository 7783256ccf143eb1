package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Plot renders the table as an ASCII chart, one glyph per series, rows on
// the x axis. Values are scaled linearly (or log10 when the spread exceeds
// two decades, which suits latency sweeps). It is intentionally terminal-
// friendly: the paper's figures become something `watch`-able.
func (t *Table) Plot(w io.Writer, height int) {
	if height <= 0 {
		height = 16
	}
	if len(t.rows) == 0 || len(t.Columns) == 0 {
		fmt.Fprintln(w, "(empty table)")
		return
	}

	glyphs := []byte("*o+x#@%&")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range t.rows {
		for _, v := range r.values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	logScale := lo > 0 && hi/lo > 100
	xf := func(v float64) float64 {
		if logScale {
			return math.Log10(v)
		}
		return v
	}
	flo, fhi := xf(lo), xf(hi)

	const colWidth = 6
	width := len(t.rows) * colWidth
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for ri, r := range t.rows {
		x := ri*colWidth + colWidth/2
		for ci, v := range r.values {
			if v < lo {
				continue
			}
			y := int((xf(v) - flo) / (fhi - flo) * float64(height-1))
			row := height - 1 - y
			if row < 0 {
				row = 0
			}
			if grid[row][x] == ' ' {
				grid[row][x] = glyphs[ci%len(glyphs)]
			} else {
				grid[row][x] = '=' // collision: series overlap here
			}
		}
	}

	fmt.Fprintf(w, "# %s\n", t.Title)
	scaleName := "linear"
	if logScale {
		scaleName = "log10"
	}
	fmt.Fprintf(w, "# y: %s (%s scale, %s .. %s)\n", t.YLabel, scaleName, FormatValue(lo), FormatValue(hi))
	for i, line := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%8s", FormatValue(hi))
		case height - 1:
			label = fmt.Sprintf("%8s", FormatValue(lo))
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(line))
	}
	fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", width))

	// X labels, centered per column.
	var xrow strings.Builder
	for _, r := range t.rows {
		xrow.WriteString(centered(r.x, colWidth))
	}
	fmt.Fprintf(w, "%8s  %s  (%s)\n", "", xrow.String(), t.XLabel)

	// Legend.
	for ci, c := range t.Columns {
		fmt.Fprintf(w, "%10c %s\n", glyphs[ci%len(glyphs)], c)
	}
	fmt.Fprintln(w, "         = overlapping series")
}

func centered(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", w-len(s)-left)
}
