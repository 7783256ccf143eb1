package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A set is the unit a claim is judged on: Reps untraced repetitions of
// each workload, each in a fresh child process, plus one traced pass per
// workload, plus the layer drives once, in the set's own process.

type setConfig struct {
	Workloads []string
	Seed      uint64
	Seconds   float64
	Reps      int
	Out       string
}

// spread is one metric over the repetitions of a set.
type spread struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func spreadOf(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Median: median(s), Min: s[0], Max: s[len(s)-1], Values: xs}
}

// workloadSummary is one workload's row of a set.
type workloadSummary struct {
	Workload     string             `json:"workload"`
	Sizes        map[string]int64   `json:"sizes"`
	EndToEnd     map[string]spread  `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer"`
	FailedOpsPct float64            `json:"failed_ops_pct"`
	Digest       string             `json:"virt_digest"`
	Notes        []string           `json:"notes,omitempty"`
}

// setResult is what a set writes to results.json.
type setResult struct {
	Stamp     stamp             `json:"stamp"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Reps      int               `json:"reps"`
	Drives    values            `json:"drives"`
	Workloads []workloadSummary `json:"workloads"`
	Runs      []*result         `json:"runs"`
}

func runSet(cfg setConfig, stdout, stderr io.Writer) int {
	if cfg.Out == "" {
		dir, err := os.MkdirTemp("", "imca-benchmark-")
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		cfg.Out = dir
	}
	set := setResult{Stamp: hostStamp(), Seed: cfg.Seed, Seconds: cfg.Seconds, Reps: cfg.Reps}
	fmt.Fprintf(stdout, "benchmark set: commit %s  %s %s/%s  nproc %d  GOMAXPROCS %d  seed %d  sized for %g s  %d repetitions + 1 traced pass per workload\n",
		set.Stamp.Commit, set.Stamp.GoVersion, set.Stamp.GOOS, set.Stamp.GOARCH, set.Stamp.NumCPU, set.Stamp.GOMAXPROCS, cfg.Seed, cfg.Seconds, cfg.Reps)
	tr := newTracer("set")
	root := tr.start("set")
	sp := tr.start("drives")
	set.Drives = values{}
	runDrives(driveDur, set.Drives, tr)
	sp.end()
	code := 0
	for _, name := range cfg.Workloads {
		sum, runs, err := runWorkloadSet(cfg, name, set.Drives, tr, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		set.Workloads = append(set.Workloads, *sum)
		set.Runs = append(set.Runs, runs...)
		if printSummary(stdout, sum, runs) {
			code = 1
		}
	}
	root.end()
	fmt.Fprintf(stdout, "\n== layer drives, once per set: host ns per call, each a loop of at least %v\n", driveDur)
	for _, d := range perLayer {
		if x, ok := set.Drives[d.Name]; ok {
			fmt.Fprintf(stdout, "   %-34s %14s %-12s [%s]\n", d.Name, formatValue(x), d.Unit, d.Clock)
		}
	}
	if err := writeOutputs(cfg.Out, set, tr.spans); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresults: %s/results.json (summaries and every run), trace.json (the benchmark's own spans, Chrome trace format)\n", cfg.Out)
	return code
}

// runWorkloadSet runs one workload's repetitions and traced pass.
func runWorkloadSet(cfg setConfig, name string, driven values, tr *tracer, stderr io.Writer) (*workloadSummary, []*result, error) {
	wsp := tr.start(name)
	defer wsp.end()
	child := func(trace bool) (*result, error) {
		pc := passConfig{Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: trace}
		label := "rep"
		if trace {
			label = "traced"
		}
		sp := tr.start(label)
		res, err := spawnPass(pc, stderr)
		if err == nil {
			tr.adopt(res.Spans)
		}
		sp.end()
		return res, err
	}
	var reps []*result
	for r := 0; r < cfg.Reps; r++ {
		res, err := child(false)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, res)
	}
	traced, err := child(true)
	if err != nil {
		return nil, nil, err
	}
	finishTraced(traced, reps, driven)
	runs := append(append([]*result(nil), reps...), traced)

	sum := &workloadSummary{Workload: name, Sizes: reps[0].Sizes, EndToEnd: map[string]spread{}, PerLayer: map[string]float64{},
		Digest: reps[0].Digest, Notes: reps[0].Notes}
	for _, defs := range [][]metricDef{endToEnd, scoped} {
		for _, d := range defs {
			if !d.definedOn(name) {
				continue
			}
			xs := make([]float64, len(reps))
			for i, r := range reps {
				xs[i] = r.Values[d.Name]
			}
			sum.EndToEnd[d.Name] = spreadOf(xs)
		}
	}
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	sum.FailedOpsPct = failedPct(failed, attempted)
	// The drives belong to the set and the scoped metrics are listed
	// end to end with their spreads; the rest is the traced pass's.
	for _, d := range perLayer {
		if d.definedOn(name) && !isScoped(d.Name) && !strings.HasPrefix(d.Name, "drive.") {
			sum.PerLayer[d.Name] = traced.Values[d.Name]
		}
	}
	return sum, runs, nil
}

// printSummary prints one workload's row and reports whether it failed:
// an operation failed verification, or a virtual-time value or count
// differed between repetitions or between the traced and untraced passes
// (finishTraced holds every repetition's digest against the traced one).
func printSummary(w io.Writer, sum *workloadSummary, runs []*result) (bad bool) {
	fmt.Fprintf(w, "\n== %s\n", sum.Workload)
	fmt.Fprintf(w, "   sizes:%s\n", formatSizes(sum.Sizes))
	for _, n := range sum.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	fmt.Fprintf(w, "   end to end, tracing off: median [min - max] of %d repetitions\n", len(runs)-1)
	for _, defs := range [][]metricDef{endToEnd, scoped} {
		for _, d := range defs {
			s, ok := sum.EndToEnd[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-34s %14s %-12s [%s - %s] [%s] bound %g%%\n", d.Name, formatValue(s.Median), d.Unit,
				formatValue(s.Min), formatValue(s.Max), d.Clock, 100*d.Bound)
			if d.Clock == "virt" && s.Min != s.Max {
				fmt.Fprintf(w, "   FAILED: %s differs between repetitions\n", d.Name)
				bad = true
			}
		}
	}
	fmt.Fprintf(w, "   %-34s %14s %-12s\n", "failed_ops_pct", formatValue(sum.FailedOpsPct), "%")
	fmt.Fprintf(w, "   %-34s %s\n", "virt_digest", sum.Digest)
	fmt.Fprintln(w, "   per layer, traced pass:")
	for _, d := range perLayer {
		if x, ok := sum.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "   %-34s %14s %-12s [%s]\n", d.Name, formatValue(x), d.Unit, d.Clock)
		}
	}
	for _, r := range runs {
		for _, reason := range r.Reasons {
			fmt.Fprintf(w, "   FAILED: %s\n", reason)
			bad = true
		}
	}
	return bad || sum.FailedOpsPct > 0
}

func isScoped(name string) bool {
	for _, d := range scoped {
		if d.Name == name {
			return true
		}
	}
	return false
}
