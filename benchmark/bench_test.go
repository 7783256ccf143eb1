package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"imca/internal/blob"
)

// tinyPass sizes a pass at about 1/100 of the reference.
func tinyPass(workload string, trace bool) passConfig {
	return passConfig{Workload: workload, Seed: 1, Seconds: 0.1, Trace: trace}
}

// tinyTraced is runTraced at that size, with the untraced pass in this
// process instead of a child.
func tinyTraced(t *testing.T, workload string, driven values) (res, base *result) {
	t.Helper()
	base, err := runPass(tinyPass(workload, false))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = runPass(tinyPass(workload, true)); err != nil {
		t.Fatal(err)
	}
	finishTraced(res, []*result{base}, driven)
	res.absorb(base)
	return res, base
}

func declared(defs ...[]metricDef) map[string]metricDef {
	out := map[string]metricDef{}
	for _, ds := range defs {
		for _, d := range ds {
			out[d.Name] = d
		}
	}
	return out
}

// TestManifestMatchesCatalogue holds BENCHMARK.json and the catalogue the
// binary prints from equal in both directions, and inside the driver's
// limits.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the driver's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range got.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range got.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]manifestMetric{}, got.EndToEnd...), got.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the driver's pattern", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", got.RunSeconds)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// TestSmoke runs every workload at about 1/100 size, untraced and traced,
// with the drives at 2 ms each, and checks what the binary would print
// against the catalogue.
func TestSmoke(t *testing.T) {
	driven := values{}
	runDrives(2*time.Millisecond, driven, nil)
	// Values the passes keep beside the catalogue's metrics.
	extra := map[string]bool{"failed_ops_pct": true, "cpu.samples": true, "optrace.total_us": true, "optrace.layers_sum_us": true}
	known := declared(endToEnd, perLayer)
	for _, w := range workloadDefs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, base := tinyTraced(t, w.Name, driven)
			if want := 3 * base.Attempted / 2; res.Attempted != want {
				t.Errorf("the traced run attempted %d ops, want its own and the untraced pass's: %d", res.Attempted, want)
			}
			if !res.Correct || res.Failed != 0 || exitCode(res) != 0 {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Reasons)
			}
			for n := range res.Values {
				if _, ok := known[n]; !ok && !extra[n] {
					t.Errorf("the pass measured %q, which the catalogue does not declare", n)
				}
			}
			for _, d := range known {
				if _, ok := res.Values[d.Name]; d.definedOn(w.Name) && !ok {
					t.Errorf("the catalogue declares %q on %s but the pass did not measure it", d.Name, w.Name)
				}
			}
			for _, traced := range []bool{false, true} {
				line := driverLine(&result{Traced: traced, Values: res.Values})
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("driver line (trace %v) has %d metrics, want %d", traced, len(line.Metrics), len(want))
				}
			}
			for _, d := range endToEnd {
				if !(base.Values[d.Name] > 0) {
					t.Errorf("%s = %v, an end-to-end metric must never be 0", d.Name, base.Values[d.Name])
				}
			}
			if res.Values["cpu.samples"] > 0 {
				var sum float64
				for _, l := range cpuLayers {
					sum += res.Values["cpu."+l+"_pct"]
				}
				if math.Abs(sum-100) > 1 {
					t.Errorf("cpu.*_pct sums to %.2f, want 100 +- 1", sum)
				}
			}
			if w.Name == "mcd_tcp" {
				if res.Values["cpu.sim_pct"] != 0 {
					t.Errorf("cpu.sim_pct = %v on mcd_tcp, which runs no simulator", res.Values["cpu.sim_pct"])
				}
				return
			}
			if w.Name == "rw_records" {
				total, sum := res.Values["optrace.total_us"], res.Values["optrace.layers_sum_us"]
				if total <= 0 || math.Abs(sum-total) > 1e-6*total {
					t.Errorf("optrace layer means sum to %v us, traced end-to-end mean is %v us", sum, total)
				}
				var listed float64
				for _, l := range optraceLayers {
					listed += res.Values["virt."+l+"_us"]
				}
				if math.Abs(listed-total) > 1e-6*total {
					t.Errorf("the nine reported layers sum to %v us of the %v us mean: a layer is missing from the catalogue", listed, total)
				}
			}
		})
	}
}

// TestCheckerCatchesWrongOutput is the negative test: wrong bytes, a short
// read, a wrong stat and a wrong daemon value each count as failed
// operations, and a pass with a failure exits non-zero.
func TestCheckerCatchesWrongOutput(t *testing.T) {
	want := blob.Synthetic(1, 4096, 4096)
	var ok checker
	ok.checkBlob("right", blob.Synthetic(1, 4096, 4096), want)
	ok.checkStat("right", 0, false, 0)
	ok.checkValue(7, valueOf(7))
	if ok.failed != 0 {
		t.Fatalf("correct outputs counted as %d failures: %v", ok.failed, ok.reasons)
	}

	var c checker
	c.checkBlob("wrong seed", blob.Synthetic(2, 4096, 4096), want)
	c.checkBlob("wrong offset", blob.Synthetic(1, 0, 4096), want)
	c.checkBlob("short", blob.Synthetic(1, 4096, 100), want)
	c.checkStat("wrong size", 5, false, 0)
	c.checkValue(7, valueOf(8)) // the right length, the wrong fill byte
	c.checkValue(2, valueOf(2)[:10])
	if c.failed != 6 {
		t.Fatalf("6 wrong outputs counted as %d failures: %v", c.failed, c.reasons)
	}
	res := &result{Attempted: 1000, Failed: c.failed}
	res.Correct = res.Failed == 0
	if pct := failedPct(res.Failed, res.Attempted); !(pct > 0) {
		t.Errorf("failed_ops_pct = %v with %d failures", pct, res.Failed)
	}
	if exitCode(res) == 0 {
		t.Error("a pass with failed operations exits 0")
	}
	if line := driverLine(res); line.Correct || line.Failed != 6 {
		t.Errorf("driver line says correct=%v failed=%d", line.Correct, line.Failed)
	}
}

// TestOverLimitCountsAsFailed pins the open-loop rule: every completion of
// the timed phase is held against the latency limit, and one past it is a
// failed operation.
func TestOverLimitCountsAsFailed(t *testing.T) {
	w := newOpen10k(0.1, 1)
	w.setup()
	w.timed()
	var c checker
	w.verify(&c)
	if c.failed != 0 || w.run.Latency.Count() != uint64(w.ops()) {
		t.Fatalf("a clean run counted %d failures over %d latencies of %d ops: %v", c.failed, w.run.Latency.Count(), w.ops(), c.reasons)
	}
	if n := overLimit(w.run.Latency, openLimit); n != 0 {
		t.Fatalf("%d reads over the limit on a clean run", n)
	}
	w.run.Latency.Observe(openLimit - 1)
	w.run.Latency.Observe(3 * openLimit)
	if n := overLimit(w.run.Latency, openLimit); n != 1 {
		t.Errorf("one read just inside the limit and one past it counted as %d over it", n)
	}
	w.verify(&c)
	if c.failed == 0 || !strings.Contains(strings.Join(c.reasons, "\n"), "exceeded") {
		t.Errorf("a read past the limit counted as %d failures: %v", c.failed, c.reasons)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"stray"}} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 || out.Len() > 0 {
			t.Errorf("run(%v) = %d with %d bytes of output, want a non-zero exit and no result", args, code, out.Len())
		}
	}
}

func TestSpansNestAndExport(t *testing.T) {
	tr := newTracer("w")
	a := tr.start("a")
	b := tr.start("b")
	b.end()
	tr.adopt([]span{{Name: "child", Workload: "w", Parent: -1, StartUS: 0, EndUS: 5}, {Name: "grand", Workload: "w", Parent: 0, StartUS: 1, EndUS: 2}})
	a.end()
	if got := tr.spans[1].Parent; got != 0 {
		t.Errorf("b's parent is %d, want 0", got)
	}
	if tr.spans[2].Parent != 0 || tr.spans[3].Parent != 2 {
		t.Errorf("adopted spans have parents %d and %d, want 0 and 2", tr.spans[2].Parent, tr.spans[3].Parent)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 4 {
		t.Errorf("chrome trace holds %d events (err %v), want 4", len(doc.TraceEvents), err)
	}
}
