package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

// TestChromeTraceEscaping drives strings that are hostile to JSON — quotes,
// backslashes, newlines, control bytes, non-ASCII — through op names, span
// names, and attributes, and checks the export is valid JSON that round-trips
// them exactly.
func TestChromeTraceEscaping(t *testing.T) {
	hostile := `he said "hi"\` + "\n\tpath=C:\\tmp\x01é日本"
	env := sim.NewEnv()
	col := optrace.NewCollector()
	col.Keep = true
	env.Process("ops", func(p *sim.Proc) {
		col.Begin(p, hostile)
		sp := optrace.StartSpan(p, optrace.LayerFuse, hostile)
		sp.SetAttr(hostile, hostile)
		p.Sleep(time.Microsecond)
		sp.End(p)
		col.End(p)
	})
	env.Run()

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, col.Ops(), nil); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("hostile strings broke the JSON: %v\n%s", err, buf.String())
	}
	var sawSpan, sawAttr bool
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == hostile {
			sawSpan = true
			if ev.Args[hostile] == hostile {
				sawAttr = true
			}
		}
	}
	if !sawSpan {
		t.Error("hostile span name did not round-trip")
	}
	if !sawAttr {
		t.Error("hostile attribute did not round-trip")
	}
}

// counterTrackRun records a sampled workload and exports it with counter
// tracks merged in, returning the bytes.
func counterTrackRun(t *testing.T) []byte {
	t.Helper()
	env := sim.NewEnv()
	reg := telemetry.NewRegistry()
	var ops uint64
	reg.Counter("ops", func() uint64 { return ops })
	h := reg.Hist("lat")
	col := optrace.NewCollector()
	col.Keep = true
	smp := telemetry.NewSampler(env, reg, 10*time.Microsecond)
	env.Process("w", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			col.Begin(p, "op")
			sp := optrace.StartSpan(p, optrace.LayerFuse, "op")
			t0 := p.Now()
			p.Sleep(3 * time.Microsecond)
			h.Observe(p.Now().Sub(t0))
			ops++
			sp.End(p)
			col.End(p)
		}
	})
	env.Run()
	smp.Sample(env.Now())
	smp.Stop()

	var buf bytes.Buffer
	err := telemetry.WriteChromeTrace(&buf, col.Ops(), smp.CounterTracks("ops", "lat"))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCounterTracksExport checks the merged export: counter events land
// under pid 2 after the span events, scalar instruments give one track,
// hists give three, and recording + exporting twice is byte-identical.
func TestCounterTracksExport(t *testing.T) {
	out := counterTrackRun(t)
	if again := counterTrackRun(t); !bytes.Equal(out, again) {
		t.Error("re-recorded export differs — counter tracks are not deterministic")
	}

	var f struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sawSpanAfterCounter := false
	inCounters := false
	for _, ev := range f.TraceEvents {
		if ev.Ph != "C" {
			if inCounters {
				sawSpanAfterCounter = true
			}
			continue
		}
		inCounters = true
		if ev.Pid != 2 {
			t.Errorf("counter event %q under pid %d, want 2", ev.Name, ev.Pid)
		}
		if _, ok := ev.Args["value"]; !ok {
			t.Errorf("counter event %q lacks args.value", ev.Name)
		}
		counts[ev.Name]++
	}
	if sawSpanAfterCounter {
		t.Error("span events interleaved after counter events; tracks must come last")
	}
	for _, name := range []string{"ops", "lat.p50_us", "lat.p95_us", "lat.p99_us"} {
		if counts[name] == 0 {
			t.Errorf("no counter events for track %q (have %v)", name, counts)
		}
	}
	// The final ops sample must carry the full count.
	var lastOps interface{} = -1.0
	for _, ev := range f.TraceEvents {
		if ev.Ph == "C" && ev.Name == "ops" {
			lastOps = ev.Args["value"]
		}
	}
	if lastOps != 8.0 {
		t.Errorf("final ops counter sample = %v, want 8", lastOps)
	}
}
