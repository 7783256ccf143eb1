// Package report renders a full experiment run — tables, claims, latency
// timelines, per-layer breakdowns, telemetry and flight-recorder dumps —
// into one static, self-contained HTML page, and what the run traced into
// one Chrome trace-event file. The page embeds no external assets and no
// timestamps, and every number is formatted with explicit strconv verbs, so
// the same inputs always produce the same bytes: CI can diff two reports
// the way it diffs two benchmark JSON files.
package report

import (
	"fmt"
	"html"
	"io"
	"strconv"
	"strings"

	"imca/internal/experiments"
	"imca/internal/metrics"
	"imca/internal/optrace"
	"imca/internal/telemetry"
)

// seriesColors are the fixed stroke colors for timeline percentile
// traces, in series order (p50, p95, p99, then wrapping).
var seriesColors = []string{"#2166ac", "#ef8a1e", "#b2182b", "#4dac26"}

// svgW and svgH are the fixed plot dimensions; margins leave room for the
// axis labels.
const (
	svgW       = 640
	svgH       = 200
	marginLeft = 60
	marginBot  = 24
	marginTop  = 10
)

// Write renders the results as one HTML page. It returns the first write
// error, if any.
func Write(w io.Writer, title string, results []*experiments.Result) error {
	ew := &errWriter{w: w}
	p := func(format string, args ...interface{}) { fmt.Fprintf(ew, format, args...) }

	p("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	p("<title>%s</title>\n<style>\n%s</style>\n</head>\n<body>\n", html.EscapeString(title), css)
	p("<h1>%s</h1>\n", html.EscapeString(title))

	// Table of contents, in run order.
	p("<nav><ul>\n")
	for _, r := range results {
		p("<li><a href=\"#%s\">%s</a></li>\n", html.EscapeString(r.Name), html.EscapeString(r.Name))
	}
	p("</ul></nav>\n")

	var claims []experiments.Claim
	for _, r := range results {
		writeResult(ew, r)
		claims = append(claims, r.Claims...)
	}
	p("<section id=\"scorecard\">\n<h2>scorecard</h2>\n<p class=\"note\">%s</p>\n</section>\n",
		html.EscapeString(experiments.Scorecard(claims)))
	p("</body>\n</html>\n")
	return ew.err
}

// WriteTrace writes the retained operations of every result, with the
// results' counter tracks merged in, as one Chrome trace-event file
// (telemetry.WriteChromeTrace), and returns how many of each it wrote.
func WriteTrace(w io.Writer, results []*experiments.Result) (ops, tracks int, err error) {
	var all []*optrace.Op
	var trs []telemetry.CounterTrack
	for _, r := range results {
		all = append(all, r.Ops...)
		trs = append(trs, r.Tracks...)
	}
	return len(all), len(trs), telemetry.WriteChromeTrace(w, all, trs)
}

func writeResult(w io.Writer, r *experiments.Result) {
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	p("<section id=\"%s\">\n<h2>%s</h2>\n", html.EscapeString(r.Name), html.EscapeString(r.Name))

	if t := r.Table; t != nil {
		p("<h3>%s</h3>\n", html.EscapeString(t.Title))
		p("<table>\n<thead><tr><th>%s</th>", html.EscapeString(t.XLabel))
		for _, c := range t.Columns {
			p("<th>%s</th>", html.EscapeString(c))
		}
		p("</tr></thead>\n<tbody>\n")
		for i := 0; i < t.Rows(); i++ {
			p("<tr><td>%s</td>", html.EscapeString(t.X(i)))
			for _, c := range t.Columns {
				p("<td>%s</td>", metrics.FormatValue(t.Value(i, c)))
			}
			p("</tr>\n")
		}
		p("</tbody>\n</table>\n")
		p("<p class=\"axis\">y: %s</p>\n", html.EscapeString(t.YLabel))
	}

	for _, c := range r.Claims {
		p("<p class=\"note\">%s</p>\n", html.EscapeString(c.String()))
	}

	for _, tl := range r.Timelines {
		writeTimeline(w, tl)
	}

	for _, dumps := range [][]experiments.NamedDump{r.Breakdowns, r.Telemetry, r.Flight} {
		for _, d := range dumps {
			p("<h3>%s</h3>\n", html.EscapeString(d.Title))
			p("<pre>%s</pre>\n", html.EscapeString(d.Text))
		}
	}
	p("</section>\n")
}

// writeTimeline renders one percentile timeline as an inline SVG line
// chart: x is virtual time over the run, y is microseconds.
func writeTimeline(w io.Writer, tl experiments.Timeline) {
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	p("<h3>%s</h3>\n", html.EscapeString(tl.Title))
	if len(tl.TimesNs) == 0 {
		p("<p class=\"note\">(no samples)</p>\n")
		return
	}

	maxV := 0.0
	for _, s := range tl.Series {
		for _, v := range s.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	maxT := tl.TimesNs[len(tl.TimesNs)-1]
	if maxT == 0 {
		maxT = 1
	}

	plotW := float64(svgW - marginLeft - 10)
	plotH := float64(svgH - marginTop - marginBot)
	xOf := func(tNs int64) float64 {
		return marginLeft + plotW*float64(tNs)/float64(maxT)
	}
	yOf := func(v float64) float64 {
		return marginTop + plotH*(1-v/maxV)
	}

	p("<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" role=\"img\">\n", svgW, svgH, svgW, svgH)
	// Axes.
	p("<line class=\"ax\" x1=\"%d\" y1=\"%s\" x2=\"%d\" y2=\"%s\"/>\n",
		marginLeft, fcoord(marginTop+plotH), svgW-10, fcoord(marginTop+plotH))
	p("<line class=\"ax\" x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%s\"/>\n",
		marginLeft, marginTop, marginLeft, fcoord(marginTop+plotH))
	// Axis extents.
	p("<text class=\"lab\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s µs</text>\n",
		marginLeft-4, marginTop+8, metrics.FormatValue(maxV))
	p("<text class=\"lab\" x=\"%d\" y=\"%s\" text-anchor=\"end\">0</text>\n",
		marginLeft-4, fcoord(marginTop+plotH))
	p("<text class=\"lab\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s ms</text>\n",
		svgW-10, svgH-6, metrics.FormatValue(float64(maxT)/1e6))
	// One polyline per series.
	for si, s := range tl.Series {
		color := seriesColors[si%len(seriesColors)]
		var pts strings.Builder
		for i, v := range s.Values {
			if i >= len(tl.TimesNs) {
				break
			}
			if i > 0 {
				pts.WriteByte(' ')
			}
			pts.WriteString(fcoord(xOf(tl.TimesNs[i])))
			pts.WriteByte(',')
			pts.WriteString(fcoord(yOf(v)))
		}
		p("<polyline class=\"tr\" stroke=\"%s\" points=\"%s\"/>\n", color, pts.String())
		// Legend entry.
		lx := marginLeft + 8 + si*90
		p("<rect x=\"%d\" y=\"%d\" width=\"10\" height=\"3\" fill=\"%s\"/>\n", lx, marginTop+4, color)
		p("<text class=\"lab\" x=\"%d\" y=\"%d\">%s</text>\n", lx+14, marginTop+9, html.EscapeString(s.Label))
	}
	p("</svg>\n")
}

// fcoord formats an SVG coordinate with fixed precision so layout is
// platform-independent.
func fcoord(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(b []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(b)
	ew.err = err
	return n, err
}

const css = `body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 72em; padding: 0 1em; color: #1a1a1a; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; border-bottom: 1px solid #ccc; }
h3 { font-size: 1em; margin-bottom: 0.3em; }
nav ul { columns: 3; list-style: none; padding: 0; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
thead th { background: #f0f0f0; }
p.note { margin: 0.2em 0; color: #444; }
p.axis { margin: 0.2em 0; color: #888; font-size: 0.85em; }
pre { background: #f7f7f7; border: 1px solid #ddd; padding: 0.5em; overflow-x: auto; font-size: 12px; }
svg { margin: 0.5em 0; }
svg .ax { stroke: #999; stroke-width: 1; }
svg .tr { fill: none; stroke-width: 1.5; }
svg .lab { font: 10px system-ui, sans-serif; fill: #555; }
`
