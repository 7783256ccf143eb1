package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"imca/internal/cluster"
	"imca/internal/optrace"
	"imca/internal/sim"
	"imca/internal/telemetry"
	"imca/internal/workload"
)

func TestRegistryKindsAndOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	var reads uint64 = 7
	var txBytes int64 = 1 << 20
	reg.Counter("reads", func() uint64 { return reads })
	reg.IntCounter("tx_bytes", func() int64 { return txBytes })
	reg.Gauge("util", func() float64 { return 0.5 })
	reg.Rate("hit_rate", func() uint64 { return 3 }, func() uint64 { return 4 })

	if reg.Len() != 4 {
		t.Fatalf("Len = %d, want 4", reg.Len())
	}
	want := []string{"reads", "tx_bytes", "util", "hit_rate"}
	for i, in := range reg.Instruments() {
		if in.Name() != want[i] {
			t.Errorf("Instruments[%d] = %s, want %s (registration order)", i, in.Name(), want[i])
		}
	}
	if in := reg.Get("reads"); in == nil || in.Kind() != telemetry.KindCounter {
		t.Error("reads not a counter")
	}
	if in := reg.Get("util"); in == nil || in.Kind() != telemetry.KindGauge {
		t.Error("util not a gauge")
	}
	if in := reg.Get("hit_rate"); in == nil || in.Kind() != telemetry.KindRate {
		t.Error("hit_rate not a rate")
	}
	if v, ok := reg.Value("hit_rate"); !ok || v != 0.75 {
		t.Errorf("hit_rate = %v %v, want 0.75 true", v, ok)
	}
	if _, ok := reg.Value("nope"); ok {
		t.Error("Value(nope) reported ok")
	}
	// Instruments are live closures, not snapshots.
	reads = 12
	if v, _ := reg.Value("reads"); v != 12 {
		t.Errorf("reads = %v after increment, want 12", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Gauge("x", func() float64 { return 0 })
}

func TestRateZeroDenominator(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Rate("r", func() uint64 { return 5 }, func() uint64 { return 0 })
	if v, _ := reg.Value("r"); v != 0 {
		t.Errorf("rate with zero denominator = %v, want 0", v)
	}
}

func TestDumpFormatting(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("reads", func() uint64 { return 7 })
	reg.Gauge("util", func() float64 { return 0.5 })
	reg.Rate("hit_rate", func() uint64 { return 3 }, func() uint64 { return 4 })

	var sb strings.Builder
	reg.Dump(&sb)
	want := "reads     counter  7\n" +
		"util      gauge    0.500\n" +
		"hit_rate  rate     0.7500\n"
	if sb.String() != want {
		t.Errorf("Dump =\n%q\nwant\n%q", sb.String(), want)
	}

	sb.Reset()
	reg.DumpFilter(&sb, "rate")
	if sb.String() != "hit_rate  rate     0.7500\n" {
		t.Errorf("DumpFilter(rate) = %q", sb.String())
	}
	sb.Reset()
	reg.DumpFilter(&sb, "zzz")
	if sb.String() != "(no instruments)\n" {
		t.Errorf("DumpFilter(zzz) = %q", sb.String())
	}
}

func TestSamplerBoundariesAndFinalSample(t *testing.T) {
	env := sim.NewEnv()
	var ops uint64
	reg := telemetry.NewRegistry()
	reg.Counter("ops", func() uint64 { return ops })
	smp := telemetry.NewSampler(env, reg, 10*time.Microsecond)
	env.Process("worker", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(7 * time.Microsecond) // increments at 7, 14, 21, 28, 35µs
			ops++
		}
	})
	env.Run()
	smp.Sample(env.Now()) // close the series
	smp.Sample(env.Now()) // duplicate: ignored
	smp.Stop()

	wantTimes := []sim.Time{
		sim.Time(10 * time.Microsecond),
		sim.Time(20 * time.Microsecond),
		sim.Time(30 * time.Microsecond),
		sim.Time(35 * time.Microsecond),
	}
	times := smp.Times()
	if smp.Len() != len(wantTimes) {
		t.Fatalf("samples at %v, want %v", times, wantTimes)
	}
	for i := range wantTimes {
		if times[i] != wantTimes[i] {
			t.Errorf("sample %d at %v, want %v", i, times[i], wantTimes[i])
		}
	}
	// Values reflect the state at each boundary instant.
	wantOps := []float64{1, 2, 4, 5}
	for i, v := range smp.Series("ops") {
		if v != wantOps[i] {
			t.Errorf("ops[%d] = %v, want %v", i, v, wantOps[i])
		}
	}
}

func TestSamplerBackfillsLateInstruments(t *testing.T) {
	env := sim.NewEnv()
	reg := telemetry.NewRegistry()
	reg.Counter("early", func() uint64 { return 1 })
	smp := telemetry.NewSampler(env, reg, 10*time.Microsecond)
	env.Process("a", func(p *sim.Proc) { p.Sleep(25 * time.Microsecond) })
	env.Run() // samples at 10µs and 20µs

	reg.Counter("late", func() uint64 { return 7 })
	env.Process("b", func(p *sim.Proc) { p.Sleep(10 * time.Microsecond) })
	env.Run() // sample at 30µs
	smp.Stop()

	if got := smp.Series("late"); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 7 {
		t.Errorf("late series = %v, want [0 0 7]", got)
	}
	if got := smp.Series("early"); len(got) != 3 {
		t.Errorf("early series length = %d, want 3", len(got))
	}
	if smp.Series("never") != nil {
		t.Error("unknown series not nil")
	}
}

func TestSamplerDoesNotAdvanceClock(t *testing.T) {
	run := func(sample bool) (sim.Time, uint64) {
		env := sim.NewEnv()
		var n uint64
		if sample {
			reg := telemetry.NewRegistry()
			reg.Counter("n", func() uint64 { return n })
			telemetry.NewSampler(env, reg, 3*time.Microsecond)
		}
		env.Process("w", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(5 * time.Microsecond)
				n++
			}
		})
		end := env.Run()
		return end, env.EventsProcessed
	}
	endA, evA := run(false)
	endB, evB := run(true)
	if endA != endB || evA != evB {
		t.Errorf("sampled run (%v, %d events) differs from plain run (%v, %d events)",
			endB, evB, endA, evA)
	}
}

// chromeFile mirrors the exported JSON shape for decoding in tests.
type chromeFile struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTrace(t *testing.T) {
	env := sim.NewEnv()
	col := optrace.NewCollector()
	col.Keep = true
	env.Process("ops", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			col.Begin(p, "read")
			root := optrace.StartSpan(p, optrace.LayerFuse, "read")
			p.Sleep(5 * time.Microsecond)
			inner := optrace.StartSpan(p, optrace.LayerPosix, "disk")
			inner.SetAttr("bytes", "4096")
			p.Sleep(20 * time.Microsecond)
			inner.End(p)
			root.End(p)
			col.End(p)
		}
		col.Begin(p, "noop") // an op with no spans still gets one event
		p.Sleep(time.Microsecond)
		col.End(p)
	})
	env.Run()

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, col.Ops(), nil); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// 4 ops: 4 metadata events + 3×2 spans + 1 span-less synthetic event.
	if len(f.TraceEvents) != 11 {
		t.Fatalf("%d events, want 11", len(f.TraceEvents))
	}

	lastTs := make(map[int]float64)
	meta := 0
	var sawAttr bool
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("bad metadata event %+v", ev)
			}
		case "X":
			if ev.Dur < 0 {
				t.Errorf("negative duration in %+v", ev)
			}
			if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
				t.Errorf("tid %d: ts %v before %v — events must be non-decreasing per thread",
					ev.Tid, ev.Ts, prev)
			}
			lastTs[ev.Tid] = ev.Ts
			if ev.Args["bytes"] == "4096" {
				sawAttr = true
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 4 {
		t.Errorf("%d thread_name events, want 4 (one per op)", meta)
	}
	if !sawAttr {
		t.Error("span attribute did not survive export")
	}
}

// telemetryRun runs one small instrumented IMCa workload and returns every
// deterministic artifact: the registry dump, the sampler dump, and the
// Chrome trace JSON.
func telemetryRun(t *testing.T) (string, string, []byte) {
	t.Helper()
	c := cluster.New(cluster.Options{Clients: 2, MCDs: 1, MCDMemBytes: 64 << 20, BlockSize: 2048})
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	smp := telemetry.NewSampler(c.Env, reg, 5*time.Millisecond)
	res := workload.Latency(c.Env, c.FSes(), workload.LatencyOptions{
		Dir:         "/det",
		RecordSizes: []int64{256, 2048},
		Records:     32,
		KeepOps:     true,
	})
	smp.Sample(c.Env.Now())
	smp.Stop()

	var dump strings.Builder
	reg.Dump(&dump)
	series := fmt.Sprint(smp.Times(), smp.Series("bank.gets"), smp.Series("bank.hits"), smp.Series("brick0.pagecache.hits"))
	var trace bytes.Buffer
	if err := telemetry.WriteChromeTrace(&trace, res.Ops, nil); err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) == 0 {
		t.Fatal("KeepOps retained no operations")
	}
	return dump.String(), series, trace.Bytes()
}

// Two runs of the same seeded workload must produce byte-identical
// telemetry: the registry iterates in registration order, values format
// deterministically, and the trace export is a pure function of the ops.
func TestTelemetryDeterministic(t *testing.T) {
	dumpA, seriesA, traceA := telemetryRun(t)
	dumpB, seriesB, traceB := telemetryRun(t)
	if dumpA != dumpB {
		t.Error("registry dumps differ between identical runs")
	}
	if seriesA != seriesB {
		t.Error("sampler dumps differ between identical runs")
	}
	if !bytes.Equal(traceA, traceB) {
		t.Error("trace JSON differs between identical runs")
	}
	if !strings.Contains(dumpA, "client0.cmcache.read_hits") ||
		!strings.Contains(dumpA, "brick0.pagecache.hit_rate") ||
		!strings.Contains(dumpA, "mcd0.gets") ||
		!strings.Contains(dumpA, "bank.down_replies") {
		t.Errorf("instrumented dump missing expected layers:\n%s", dumpA)
	}
}
