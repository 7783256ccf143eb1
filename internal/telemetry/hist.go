package telemetry

import (
	"fmt"
	"io"
	"time"

	"imca/internal/metrics"
)

// Hist registers a latency histogram under name and returns it for the hot
// path to observe into. Unlike counters and gauges — which are pulled from
// state the layer already keeps — a latency distribution does not exist
// anywhere until someone records it, so hists are the one instrument hot
// paths write into directly.
//
// Observing is free in every sense the determinism invariants care about:
// it costs no virtual time, schedules nothing, allocates nothing, and a nil
// *metrics.Histogram ignores it, so layers observe unconditionally and
// uninstrumented runs stay byte-identical to instrumented ones. The
// instrument's scalar value, as seen by Sampler.Series, is its observation
// count.
func (r *Registry) Hist(name string) *metrics.Histogram {
	h := &metrics.Histogram{}
	r.add(name, KindHist, func() float64 { return float64(h.Count()) }).hist = h
	return h
}

// Quantiles is the percentile ladder every latency summary carries:
// DumpHists' columns, a hist's counter tracks, and the experiments'
// timelines.
var Quantiles = []struct {
	Label string
	Q     float64
}{{"p50_us", 0.50}, {"p95_us", 0.95}, {"p99_us", 0.99}}

// usPerDuration converts a duration to float microseconds, the unit every
// percentile column and counter track uses.
func usPerDuration(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// DumpHists writes a one-line distribution summary per hist instrument in
// registration order: count, mean, the Quantiles ladder and the maximum, in
// microseconds. Hist instruments are excluded from the scalar Dump (their
// registration must not change existing dump bytes), so this is their
// text surface — imcafsh's hists command.
func (r *Registry) DumpHists(w io.Writer) {
	var sel []*Instrument
	width := 0
	for _, in := range r.order {
		if in.kind != KindHist {
			continue
		}
		sel = append(sel, in)
		if len(in.name) > width {
			width = len(in.name)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintln(w, "(no hist instruments)")
		return
	}
	for _, in := range sel {
		h := in.hist
		fmt.Fprintf(w, "%-*s  count=%d mean_us=%.1f", width, in.name, h.Count(), usPerDuration(h.Mean()))
		for _, q := range Quantiles {
			fmt.Fprintf(w, " %s=%.0f", q.Label, usPerDuration(h.Quantile(q.Q)))
		}
		fmt.Fprintf(w, " max_us=%.1f\n", usPerDuration(h.Max()))
	}
}
