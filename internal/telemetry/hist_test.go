package telemetry_test

import (
	"strings"
	"testing"
	"time"

	"imca/internal/metrics"
	"imca/internal/sim"
	"imca/internal/telemetry"
)

func TestHistObserveAndQuantiles(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Hist("read_lat")
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	// Log2 buckets report the bucket's upper edge: 100µs lands in
	// (64µs, 128µs], 3ms in (2048µs, 4096µs].
	if q := h.Quantile(0.50); q != 128*time.Microsecond {
		t.Errorf("p50 = %v, want 128µs", q)
	}
	if q := h.Quantile(0.99); q != 4096*time.Microsecond {
		t.Errorf("p99 = %v, want 4096µs", q)
	}
	// The instrument's scalar value is its count, so samplers can align it.
	if v, ok := reg.Value("read_lat"); !ok || v != 100 {
		t.Errorf("Value = %v %v, want 100 true", v, ok)
	}
}

func TestHistNilSafe(t *testing.T) {
	var h *telemetry.Hist
	h.Observe(time.Millisecond) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil hist reported observations")
	}
	if s := h.Snapshot(); s.Count() != 0 {
		t.Error("nil hist snapshot non-empty")
	}
}

// Registering hists must not change the bytes of the scalar dumps: every
// pre-existing telemetry consumer stays byte-identical when a layer gains
// histograms.
func TestHistExcludedFromScalarDump(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("reads", func() uint64 { return 7 })
	var before strings.Builder
	reg.Dump(&before)

	h := reg.Hist("read_lat")
	h.Observe(time.Millisecond)
	var after strings.Builder
	reg.Dump(&after)
	if before.String() != after.String() {
		t.Errorf("registering a hist changed Dump bytes:\n%q\nvs\n%q", before.String(), after.String())
	}

	var hd strings.Builder
	reg.DumpHists(&hd)
	if !strings.Contains(hd.String(), "read_lat") || !strings.Contains(hd.String(), "count=1") {
		t.Errorf("DumpHists missing the hist: %q", hd.String())
	}
}

func TestDuplicatePanicNamesOffender(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("x", func() uint64 { return 0 })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate registration did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, `"x"`) ||
			!strings.Contains(msg, "counter") || !strings.Contains(msg, "hist") {
			t.Errorf("panic %v does not name the offender and both kinds", r)
		}
	}()
	reg.Hist("x")
}

// samplerHistRun drives a two-phase workload — slow ops early, fast ops
// late — through a sampled hist so interval quantiles are distinguishable
// from cumulative ones.
func samplerHistRun(t *testing.T) *telemetry.Sampler {
	t.Helper()
	env := sim.NewEnv()
	reg := telemetry.NewRegistry()
	h := reg.Hist("lat")
	smp := telemetry.NewSampler(env, reg, 100*time.Microsecond)
	env.Process("w", func(p *sim.Proc) {
		// Op end times avoid the 100µs tick boundaries so every
		// observation lands unambiguously inside one interval.
		for i := 0; i < 10; i++ { // first interval: 9µs ops, ending by 90µs
			t0 := p.Now()
			p.Sleep(9 * time.Microsecond)
			h.ObserveSince(p, t0)
		}
		for i := 0; i < 30; i++ { // 3µs ops, ending at 93..180µs
			t0 := p.Now()
			p.Sleep(3 * time.Microsecond)
			h.ObserveSince(p, t0)
		}
	})
	env.Run()
	smp.Sample(env.Now())
	smp.Stop()
	return smp
}

func TestSamplerHistIntervals(t *testing.T) {
	smp := samplerHistRun(t)
	if smp.Len() < 2 {
		t.Fatalf("only %d samples", smp.Len())
	}
	snaps := smp.HistSeries("lat")
	if len(snaps) != smp.Len() {
		t.Fatalf("HistSeries has %d entries, want %d", len(snaps), smp.Len())
	}
	if got := snaps[len(snaps)-1].Count(); got != 40 {
		t.Errorf("final cumulative count = %d, want 40", got)
	}
	ivs := smp.HistIntervals("lat")
	var sum uint64
	for _, iv := range ivs {
		sum += iv.Count()
	}
	if sum != 40 {
		t.Errorf("interval counts sum to %d, want 40 (deltas must partition the run)", sum)
	}
	// The first interval is dominated by the 9µs ops, later ones hold
	// only 3µs ops: the per-interval p50 must fall, which a cumulative
	// quantile would smear.
	p50 := smp.QuantileSeries("lat", 0.50)
	if p50[0] <= p50[len(p50)-1] {
		t.Errorf("interval p50 did not fall: first %v, last %v", p50[0], p50[len(p50)-1])
	}
	if p50[0] != 16 { // 9µs → bucket upper edge 16µs
		t.Errorf("first-interval p50 = %v µs, want 16", p50[0])
	}
	if last := p50[len(p50)-1]; last != 4 { // 3µs → upper edge 4µs
		t.Errorf("last-interval p50 = %v µs, want 4", last)
	}
}

func TestSamplerCounterTracksForHists(t *testing.T) {
	smp := samplerHistRun(t)
	tracks := smp.CounterTracks("lat")
	if len(tracks) != 3 {
		t.Fatalf("%d tracks, want 3 (p50/p95/p99)", len(tracks))
	}
	want := []string{"lat.p50_us", "lat.p95_us", "lat.p99_us"}
	for i, tr := range tracks {
		if tr.Name != want[i] {
			t.Errorf("track[%d] = %s, want %s", i, tr.Name, want[i])
		}
		if len(tr.Times) != smp.Len() || len(tr.Values) != smp.Len() {
			t.Errorf("track %s not aligned: %d times, %d values, want %d",
				tr.Name, len(tr.Times), len(tr.Values), smp.Len())
		}
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("bank.gets", func() uint64 { return 42 })
	reg.Gauge("cpu.busy", func() float64 { return 0.25 })
	h := reg.Hist("read_lat")
	h.Observe(100 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var sb strings.Builder
	telemetry.WriteOpenMetrics(&sb, reg)
	out := sb.String()
	for _, want := range []string{
		"# TYPE bank_gets counter\n",
		"bank_gets_total 42\n",
		"# TYPE cpu_busy gauge\n",
		"cpu_busy 0.25\n",
		"# TYPE read_lat histogram\n",
		`read_lat_bucket{le="0.000128"} 2` + "\n",
		`read_lat_bucket{le="+Inf"} 3` + "\n",
		"read_lat_count 3\n",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("output does not end with # EOF")
	}
}

func TestMetricsDelta(t *testing.T) {
	var a, b metrics.Histogram
	a.Observe(10 * time.Microsecond)
	b = a.Snapshot()
	b.Observe(10 * time.Microsecond)
	b.Observe(500 * time.Microsecond)
	d := metrics.Delta(b, a)
	if d.Count() != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count())
	}
	if q := d.Quantile(0.5); q != 16*time.Microsecond {
		t.Errorf("delta p50 = %v, want 16µs", q)
	}
	if q := d.Quantile(1.0); q != 512*time.Microsecond {
		t.Errorf("delta p100 = %v, want 512µs", q)
	}
}

// The acceptance bar: observing into a hist allocates nothing, so hot
// paths can observe unconditionally — directly, through the deferred
// ObserveSince idiom, or on a nil hist.
func TestHistObserveZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Hist("lat")
	var nilH *telemetry.Hist
	var bare metrics.Histogram
	task := sim.NewEnv().ContextTask("observer")
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Hist.Observe", func() { h.Observe(123 * time.Microsecond) }},
		{"nil Hist.Observe", func() { nilH.Observe(123 * time.Microsecond) }},
		{"Hist.ObserveSince", func() { h.ObserveSince(task, 0) }},
		{"metrics.Histogram.Observe", func() { bare.Observe(123 * time.Microsecond) }},
	} {
		if n := testing.AllocsPerRun(1000, tc.op); n != 0 {
			t.Errorf("%s allocates %v/op, want 0", tc.name, n)
		}
	}
}

func BenchmarkHistObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Hist("lat")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(sim.Duration(i) * time.Microsecond)
	}
}
