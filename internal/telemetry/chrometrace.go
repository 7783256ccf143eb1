package telemetry

import (
	"encoding/json"
	"io"
	"sort"

	"imca/internal/optrace"
	"imca/internal/sim"
)

// traceEvent is one entry in the Chrome trace-event JSON format that
// Perfetto (and chrome://tracing) open directly. Timestamps and durations
// are microseconds; ours carry virtual time. Args is an interface so span
// events can carry string attributes and counter events numeric values; a
// map[string]string marshals through it as a typed field would.
type traceEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args interface{} `json:"args,omitempty"`
}

// CounterTrack is one Perfetto counter timeline: a named value sampled at
// virtual instants, rendered by the trace viewer as a stepped graph above
// the span tracks. Sampler.CounterTracks builds them from recorded series.
type CounterTrack struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// traceFile is the JSON-object form of the format: {"traceEvents": [...]}.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// usOf converts a virtual duration in nanoseconds to trace microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace serializes traced operations, and counter tracks beside
// them, as Chrome trace-event JSON. Each operation becomes one thread (tid =
// position in ops, 1-based) under pid 1, named after the operation; each
// recorded span becomes a complete ("X") event with its layer as the
// category and its attributes as args. Events on a tid are emitted in
// non-decreasing ts order, so the file loads cleanly in Perfetto and
// diffing two runs compares like with like. Each track becomes a sequence
// of "C" (counter) events under pid 2, one per sample, emitted after all
// span events in the given track order.
//
// The output is deterministic: field order is fixed by the structs,
// encoding/json sorts args keys, and span order is a total order on
// (start, depth, -finish, layer, name).
func WriteChromeTrace(w io.Writer, ops []*optrace.Op, tracks []CounterTrack) error {
	var events []traceEvent
	for i, op := range ops {
		tid := i + 1
		events = append(events, traceEvent{
			Name: "thread_name",
			Ph:   "M",
			Ts:   usOf(int64(op.Start)),
			Pid:  1,
			Tid:  tid,
			Args: map[string]string{"name": op.Name},
		})
		if len(op.Spans) == 0 {
			events = append(events, traceEvent{
				Name: op.Name,
				Cat:  optrace.LayerOp,
				Ph:   "X",
				Ts:   usOf(int64(op.Start)),
				Dur:  usOf(int64(op.Dur())),
				Pid:  1,
				Tid:  tid,
			})
			continue
		}
		spans := append([]*optrace.Span(nil), op.Spans...)
		sort.SliceStable(spans, func(a, b int) bool {
			sa, sb := spans[a], spans[b]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			if sa.Depth() != sb.Depth() {
				return sa.Depth() < sb.Depth()
			}
			if sa.Finish != sb.Finish {
				return sa.Finish > sb.Finish
			}
			if sa.Layer != sb.Layer {
				return sa.Layer < sb.Layer
			}
			return sa.Name < sb.Name
		})
		for _, sp := range spans {
			ev := traceEvent{
				Name: sp.Name,
				Cat:  sp.Layer,
				Ph:   "X",
				Ts:   usOf(int64(sp.Start)),
				Dur:  usOf(int64(sp.Dur())),
				Pid:  1,
				Tid:  tid,
			}
			if len(sp.Attrs) > 0 {
				args := make(map[string]string, len(sp.Attrs))
				for _, a := range sp.Attrs {
					args[a.Key] = a.Value
				}
				ev.Args = args
			}
			events = append(events, ev)
		}
	}
	for _, tr := range tracks {
		for i, at := range tr.Times {
			events = append(events, traceEvent{
				Name: tr.Name,
				Ph:   "C",
				Ts:   usOf(int64(at)),
				Pid:  2,
				Args: map[string]float64{"value": tr.Values[i]},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}
