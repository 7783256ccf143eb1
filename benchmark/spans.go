package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one interval of the benchmark's own work: build, setup, timed,
// verify, each drive, each child process. Spans are recorded from the
// benchmark's files around the calls into the program; spans inside the
// program are optrace's business.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Parent   int     `json:"parent"` // index into the span list, -1 at the root
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil tracer records nothing.
type tracer struct {
	origin   time.Time
	workload string
	spans    []span
	open     []int // stack of open span indexes
}

func newTracer(workload string) *tracer {
	return &tracer{origin: now(), workload: workload}
}

type openSpan struct {
	tr  *tracer
	idx int
}

func (tr *tracer) start(name string) openSpan {
	if tr == nil {
		return openSpan{}
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Workload: tr.workload, Parent: parent, StartUS: us(since(tr.origin))})
	idx := len(tr.spans) - 1
	tr.open = append(tr.open, idx)
	return openSpan{tr, idx}
}

// end closes the span and returns its duration.
func (s openSpan) end() time.Duration {
	if s.tr == nil {
		return 0
	}
	sp := &s.tr.spans[s.idx]
	sp.EndUS = us(since(s.tr.origin))
	s.tr.open = s.tr.open[:len(s.tr.open)-1]
	return time.Duration((sp.EndUS - sp.StartUS) * 1e3)
}

// adopt appends a child process's spans under the currently open span,
// shifting them to start where that span started.
func (tr *tracer) adopt(child []span) {
	if tr == nil || len(tr.open) == 0 {
		return
	}
	parent := tr.open[len(tr.open)-1]
	base := len(tr.spans)
	shift := tr.spans[parent].StartUS
	for _, sp := range child {
		if sp.Parent < 0 {
			sp.Parent = parent
		} else {
			sp.Parent += base
		}
		sp.StartUS += shift
		sp.EndUS += shift
		tr.spans = append(tr.spans, sp)
	}
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one track
// per workload.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	tids := make(map[string]int)
	events := make([]event, 0, len(spans))
	for _, sp := range spans {
		tid, ok := tids[sp.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Workload] = tid
		}
		args := map[string]string{"workload": sp.Workload}
		if sp.Parent >= 0 {
			args["parent"] = spans[sp.Parent].Name
		}
		events = append(events, event{Name: sp.Name, Ph: "X", TS: sp.StartUS, Dur: sp.EndUS - sp.StartUS, PID: 1, TID: tid, Args: args})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
