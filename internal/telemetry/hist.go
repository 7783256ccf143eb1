package telemetry

import (
	"fmt"
	"io"
	"time"

	"imca/internal/metrics"
	"imca/internal/sim"
)

// Hist is the push-based histogram instrument: a handle over a
// metrics.Histogram registered in a Registry under KindHist. Unlike
// counters and gauges — which are pulled from state the layer already
// keeps — a latency distribution does not exist anywhere until someone
// records it, so hists are the one instrument hot paths write into
// directly.
//
// Observe is free in every sense the determinism invariants care about:
// it costs no virtual time, schedules nothing, allocates nothing (a
// bucket increment and four field updates), and a nil *Hist is a no-op,
// so layers call it unconditionally and uninstrumented runs stay
// byte-identical to instrumented ones.
type Hist struct {
	h *metrics.Histogram
}

// Observe records one duration. Safe on a nil receiver.
func (h *Hist) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	h.h.Observe(d)
}

// ObserveSince records the time elapsed since t0 on a's clock. It exists
// for the deferred-call idiom — `defer h.ObserveSince(p, t0)` evaluates
// its arguments at the defer site but reads Now at return, capturing the
// full span of the surrounding operation without a closure allocation.
func (h *Hist) ObserveSince(a sim.Actor, t0 sim.Time) {
	if h == nil {
		return
	}
	h.h.Observe(a.Now().Sub(t0))
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.h.Count()
}

// Quantile estimates the q-quantile of everything observed so far.
func (h *Hist) Quantile(q float64) sim.Duration {
	if h == nil {
		return 0
	}
	return h.h.Quantile(q)
}

// Snapshot returns a copy of the underlying histogram's current state.
func (h *Hist) Snapshot() metrics.Histogram {
	if h == nil {
		return metrics.Histogram{}
	}
	return h.h.Snapshot()
}

// Hist registers a new histogram instrument and returns the handle hot
// paths observe into.
func (r *Registry) Hist(name string) *Hist {
	return r.HistFrom(name, &metrics.Histogram{})
}

// HistFrom registers an existing metrics.Histogram as a hist instrument —
// the path for layers that already stream into a histogram (the open-loop
// workload's live latency histogram) and want the sampler's per-interval
// timelines without double bookkeeping. The instrument's scalar value, as
// seen by Sampler.Series and scalar dumps, is its observation count.
func (r *Registry) HistFrom(name string, h *metrics.Histogram) *Hist {
	if h == nil {
		panic("telemetry: HistFrom needs a histogram")
	}
	in := r.add(name, KindHist, func() float64 { return float64(h.Count()) })
	in.hist = h
	return &Hist{h: h}
}

// usPerDuration converts a duration to float microseconds, the unit every
// percentile column and counter track uses.
func usPerDuration(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// DumpHists writes a one-line distribution summary per hist instrument in
// registration order: count, mean and the standard percentile ladder, in
// microseconds. Hist instruments are excluded from the scalar Dump (their
// registration must not change existing dump bytes), so this is their
// text surface — imcareport and imcafsh render it.
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
		fmt.Fprintf(w, "%-*s  count=%d mean_us=%.1f p50_us=%.0f p95_us=%.0f p99_us=%.0f max_us=%.1f\n",
			width, in.name, h.Count(),
			usPerDuration(h.Mean()),
			usPerDuration(h.Quantile(0.50)),
			usPerDuration(h.Quantile(0.95)),
			usPerDuration(h.Quantile(0.99)),
			usPerDuration(h.Max()))
	}
}
