// Command benchmark is the repository's one performance instrument. It
// runs five named workloads — four on the simulator, one on the real
// memcached daemon over loopback TCP — and reports, per workload, the
// reproduced virtual-time numbers (virt_*) beside the harness's host-time
// numbers (host_*), with every layer measured from outside: through its
// exported functions and the instrumentation the program already exports.
//
//	go run ./benchmark                            a set: the layer drives, then 3 untraced repetitions and one traced pass of every workload
//	go run ./benchmark -reps 5 -workload stat_hit a set of one workload
//	go run ./benchmark -workload mcd_tcp          one untraced pass
//	go run ./benchmark -workload mcd_tcp -trace 1 the traced pass alone (with an untraced child and the layer drives)
//
// BENCHMARK.json at the repository root is the driver's view of the same
// catalogue; README.md in this directory explains every name.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames())+"; empty runs a set of all five")
		seed     = fs.Uint64("seed", 1, "seed for every generated input (open_10k arrivals and keys, mcd_tcp keys and op mix)")
		seconds  = fs.Float64("seconds", refSeconds, "run length the op counts are sized for; the reference sizes are those of 10")
		trace    = fs.Int("trace", 0, "1 runs the traced pass: instrumentation on, CPU profile, layer drives")
		reps     = fs.Int("reps", 0, "run a set: this many untraced repetitions plus one traced pass per workload, each in a fresh child process")
		out      = fs.String("out", "", "directory for results.json and trace.json (default: a new temp dir for a set, nothing for a single pass)")
		child    = fs.Bool("child", false, "what a parent benchmark process starts: one pass in this process, the whole result as the last line")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *manifest {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if *workload != "" && !isWorkload(*workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *reps < 0 || (*child && *workload == "") {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -reps not negative, -child with a -workload")
		return 2
	}
	cfg := passConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SetupBudget: setupBudget}

	if *child {
		res, err := runPass(cfg)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return exitCode(res)
	}

	if *workload == "" && *reps == 0 {
		*reps = 3
	}
	if *reps > 0 {
		names := workloadNames()
		if *workload != "" {
			names = []string{*workload}
		}
		return runSet(setConfig{Workloads: names, Seed: *seed, Seconds: *seconds, Reps: *reps, Out: *out}, stdout, stderr)
	}

	var res *result
	var err error
	if cfg.Trace {
		res, err = runTraced(cfg, stderr)
	} else {
		res, err = runPass(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeOutputs(*out, res, res.Spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printPass(stdout, res)
	if err := json.NewEncoder(stdout).Encode(driverLine(res)); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return exitCode(res)
}

// runTraced is the traced pass run alone: an untraced pass of the same
// inputs in a fresh child process, then the traced pass in this process,
// then the layer drives; it answers for both passes.
func runTraced(cfg passConfig, stderr io.Writer) (*result, error) {
	tr := newTracer(cfg.Workload)
	root := tr.start("traced-run")

	sp := tr.start("untraced-pass")
	untraced := cfg
	untraced.Trace = false
	base, err := spawnPass(untraced, stderr)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr.adopt(base.Spans)
	sp.end()

	sp = tr.start("traced-pass")
	res, err := runPass(cfg)
	if err != nil {
		return nil, err
	}
	tr.adopt(res.Spans)
	sp.end()

	sp = tr.start("drives")
	driven := values{}
	runDrives(driveDur, driven, tr)
	sp.end()

	finishTraced(res, []*result{base}, driven)
	res.absorb(base)
	root.end()
	res.Spans = tr.spans
	return res, nil
}

// exitCode is non-zero when any operation failed verification or the
// traced and untraced passes disagreed.
func exitCode(res *result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// driverValue is one metric in the driver's result line.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one JSON object the driver reads from the last line
// of standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

// driverLine selects what the driver's contract asks for: every
// end_to_end metric of an untraced pass, every per_layer metric of a
// traced one. A per-layer metric that does not exist on the workload
// reads 0.
func driverLine(res *result) driverResult {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	out := driverResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = driverValue{Value: res.Values[d.Name], Unit: d.Unit}
	}
	return out
}

// formatSizes prints a workload's sizes in key order.
func formatSizes(sizes map[string]int64) string {
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, sizes[k])
	}
	return b.String()
}

func formatValue(x float64) string { return strconv.FormatFloat(x, 'g', 8, 64) }

// printPass prints every metric the pass measured, by name with its unit.
func printPass(w io.Writer, res *result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  sized for %g s  %s pass  timed phase %.3f s\n",
		res.Workload, res.Seed, res.Seconds, kind, res.TimedS)
	fmt.Fprintf(w, "   commit %s  %s %s/%s  nproc %d  GOMAXPROCS %d\n", res.Stamp.Commit, res.Stamp.GoVersion,
		res.Stamp.GOOS, res.Stamp.GOARCH, res.Stamp.NumCPU, res.Stamp.GOMAXPROCS)
	fmt.Fprintf(w, "   sizes:%s\n", formatSizes(res.Sizes))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	groups := [][]metricDef{endToEnd, scoped}
	if res.Traced {
		groups = [][]metricDef{perLayer}
	}
	for _, defs := range groups {
		for _, d := range defs {
			if !d.definedOn(res.Workload) {
				continue
			}
			x, ok := res.Values[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-34s %14s %-12s [%s]\n", d.Name, formatValue(x), d.Unit, d.Clock)
		}
	}
	fmt.Fprintf(w, "   %-34s %14s %-12s attempted %d failed %d\n", "failed_ops_pct", formatValue(res.Values["failed_ops_pct"]), "%", res.Attempted, res.Failed)
	fmt.Fprintf(w, "   %-34s %s\n", "virt_digest", res.Digest)
	for _, r := range res.Reasons {
		fmt.Fprintf(w, "   FAILED: %s\n", r)
	}
}

// spawnPass runs one pass in a fresh child process of this binary and
// returns what it measured.
func spawnPass(cfg passConfig, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", trace, "-child")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child %s: %w", cfg.Workload, runErr)
		}
		return nil, fmt.Errorf("child %s: no result on its last line: %w", cfg.Workload, err)
	}
	// A child that verified badly exits non-zero but still reports; the
	// failure travels in the result.
	return &res, nil
}

// writeOutputs writes results (one pass's result or a whole set) as
// results.json and the benchmark's own spans as a Chrome trace under dir.
func writeOutputs(dir string, results interface{}, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), data, 0o644); err != nil {
		return err
	}
	var tr bytes.Buffer
	if err := writeChromeTrace(&tr, spans); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), tr.Bytes(), 0o644)
}
