// Package telemetry is the stack-wide observability layer: a registry of
// named instruments (counters, gauges, rates, latency histograms) read
// lazily from the layers' existing statistics, a virtual-clock sampler
// that turns them into time series, and Chrome-trace-event / OpenMetrics
// / CSV exporters.
//
// Instruments are pull-based: registering one stores a closure over the
// owning layer's counters, and nothing is read until a dump or a sample.
// Hot paths therefore pay nothing — no virtual time, no allocation, not
// even a counter increment beyond what the layer already kept — so a run
// produces byte-identical results with telemetry on or off, the same
// guarantee optrace makes for spans.
//
// Iteration order is registration order, which is deterministic because
// cluster wiring is: two identical runs dump identical bytes.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"imca/internal/metrics"
)

// Kind classifies an instrument for formatting and downstream analysis.
type Kind uint8

const (
	// KindCounter is a monotonically increasing integral count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level (bytes resident, queue depth,
	// utilization fraction).
	KindGauge
	// KindRate is a ratio in [0, 1] derived from two counters
	// (hits / lookups).
	KindRate
	// KindHist is a push-based latency distribution (see Registry.Hist). Its
	// scalar value is the observation count; the full distribution is
	// reached through Instrument.Hist and the sampler's interval
	// snapshots.
	KindHist
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindRate:
		return "rate"
	case KindHist:
		return "hist"
	}
	return "?"
}

// Instrument is one named, registered metric. Its value is computed on
// demand from the closure supplied at registration.
type Instrument struct {
	name string
	kind Kind
	read func() float64
	hist *metrics.Histogram // non-nil iff kind == KindHist
}

// Name returns the instrument's registered name.
func (in *Instrument) Name() string { return in.name }

// Kind returns the instrument's kind.
func (in *Instrument) Kind() Kind { return in.kind }

// Value reads the instrument's current value. For a hist instrument this
// is its observation count.
func (in *Instrument) Value() float64 { return in.read() }

// Hist returns the instrument's underlying histogram, or nil for scalar
// instruments.
func (in *Instrument) Hist() *metrics.Histogram { return in.hist }

// Registry holds named instruments in registration order.
type Registry struct {
	order  []*Instrument
	byName map[string]*Instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Instrument)}
}

func (r *Registry) add(name string, kind Kind, read func() float64) *Instrument {
	if name == "" || read == nil {
		panic("telemetry: instrument needs a name and a reader")
	}
	// Duplicate names are a hard error, not a shadow: a second registration
	// under the same name would make every dump, sample series and report
	// column silently read the wrong instrument.
	if prev, dup := r.byName[name]; dup {
		panic("telemetry: duplicate instrument name " + strconv.Quote(name) +
			" (already registered as a " + prev.kind.String() +
			", re-registered as a " + kind.String() + ")")
	}
	in := &Instrument{name: name, kind: kind, read: read}
	r.order = append(r.order, in)
	r.byName[name] = in
	return in
}

// Counter registers a monotonically increasing count.
func (r *Registry) Counter(name string, read func() uint64) {
	r.add(name, KindCounter, func() float64 { return float64(read()) })
}

// IntCounter registers a monotonically increasing count kept as an int64
// (byte totals, message counts).
func (r *Registry) IntCounter(name string, read func() int64) {
	r.add(name, KindCounter, func() float64 { return float64(read()) })
}

// Gauge registers an instantaneous level.
func (r *Registry) Gauge(name string, read func() float64) {
	r.add(name, KindGauge, read)
}

// Rate registers the ratio num/den (0 while den is zero) — the shape of
// every hit rate in the stack.
func (r *Registry) Rate(name string, num, den func() uint64) {
	r.add(name, KindRate, func() float64 {
		d := den()
		if d == 0 {
			return 0
		}
		return float64(num()) / float64(d)
	})
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int { return len(r.order) }

// Instruments returns the instruments in registration order.
func (r *Registry) Instruments() []*Instrument {
	return append([]*Instrument(nil), r.order...)
}

// Get returns the named instrument, or nil.
func (r *Registry) Get(name string) *Instrument { return r.byName[name] }

// Value reads the named instrument; ok is false if it is not registered.
func (r *Registry) Value(name string) (v float64, ok bool) {
	in := r.byName[name]
	if in == nil {
		return 0, false
	}
	return in.Value(), true
}

// formatValue renders one instrument value deterministically: counters as
// integers, rates with fixed precision, gauges with only as many decimals
// as they need.
func formatValue(kind Kind, v float64) string {
	switch kind {
	case KindCounter, KindHist:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case KindRate:
		return strconv.FormatFloat(v, 'f', 4, 64)
	default:
		if v == math.Trunc(v) {
			return strconv.FormatFloat(v, 'f', 0, 64)
		}
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
}

// Dump writes every instrument as an aligned "name  kind  value" line in
// registration order.
func (r *Registry) Dump(w io.Writer) { r.DumpFilter(w, "") }

// DumpFilter is Dump restricted to instruments whose name contains substr
// ("" matches everything). Hist instruments are skipped — they are
// summarized by DumpHists instead, so registering one never changes the
// bytes of an existing scalar dump.
func (r *Registry) DumpFilter(w io.Writer, substr string) {
	var sel []*Instrument
	width := 0
	for _, in := range r.order {
		if in.kind == KindHist {
			continue
		}
		if substr != "" && !strings.Contains(in.name, substr) {
			continue
		}
		sel = append(sel, in)
		if len(in.name) > width {
			width = len(in.name)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintln(w, "(no instruments)")
		return
	}
	for _, in := range sel {
		fmt.Fprintf(w, "%-*s  %-7s  %s\n", width, in.name, in.kind.String(), formatValue(in.kind, in.Value()))
	}
}
