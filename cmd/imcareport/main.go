// Command imcareport is the one program that shows what a run observed. It
// runs experiments observed (experiments.Options.Observe) and renders the
// full result — every table, claim, per-layer breakdown, telemetry dump,
// latency timeline, and flight-recorder dump — into one static,
// self-contained HTML page; -trace-out also writes the run's retained
// operations as Chrome trace-event JSON, openable in Perfetto, with the
// sampler's counter tracks (hit rates, percentile traces) merged in.
//
// Usage:
//
//	imcareport -o report.html                      # the full registry
//	imcareport -exp ext-fault -o fault.html        # one figure
//	imcareport -exp all -scale 256 -parallel 0 -o report.html
//	imcareport -exp fig6a -o fig6a.html -trace-out fig6a.json
//
// The page and the trace are deterministic: the same experiments at the
// same scale always render the same bytes (no timestamps, no map
// iteration, fixed number formatting), so reports from two commits can be
// diffed directly.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"imca/internal/experiments"
	"imca/internal/parallel"
	"imca/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: argv after the program
// name, the two output streams, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcareport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment to render (figure id, or 'all')")
		scale   = fs.Int("scale", 64, "divide the paper's workload parameters by this factor (1 = full scale)")
		workers = fs.Int("parallel", 1, "run up to N experiment points concurrently (0 = one per core)")
		out     = fs.String("o", "report.html", "output HTML file ('-' for stdout)")
		trOut   = fs.String("trace-out", "", "also write retained operations as Chrome trace-event JSON (open in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	list := experiments.Registry
	if *exp != "all" {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(stderr, "imcareport: unknown experiment %q\n", *exp)
			return 2
		}
		list = []experiments.Experiment{e}
	}
	opts := experiments.Options{Scale: *scale, Observe: true, Workers: parallel.Workers(*workers)}
	var results []*experiments.Result
	for _, e := range list {
		results = append(results, e.Run(opts))
	}

	page := stdout
	var f *os.File
	if *out != "-" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return fatal(stderr, err)
		}
		page = f
	}
	w := bufio.NewWriter(page)
	title := fmt.Sprintf("IMCa experiment report — %s, scale 1/%d", *exp, *scale)
	err := report.Write(w, title, results)
	if err == nil {
		err = w.Flush()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fatal(stderr, err)
	}
	if f != nil {
		fmt.Fprintf(stdout, "wrote %d experiment(s) to %s\n", len(results), *out)
	}

	if *trOut != "" {
		tf, err := os.Create(*trOut)
		if err != nil {
			return fatal(stderr, err)
		}
		ops, tracks, err := report.WriteTrace(tf, results)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fatal(stderr, err)
		}
		if f != nil { // under -o -, stdout is the page
			fmt.Fprintf(stdout, "wrote %d traced op(s) and %d counter track(s) to %s\n", ops, tracks, *trOut)
		}
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "imcareport: %v\n", err)
	return 1
}
