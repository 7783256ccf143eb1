// Command imcareport runs experiments and renders the full result — every
// table, note, per-layer breakdown, telemetry dump, latency timeline, and
// flight-recorder dump — into one static, self-contained HTML page.
//
// Usage:
//
//	imcareport -o report.html                      # the full registry
//	imcareport -exp ext-fault -o fault.html        # one figure
//	imcareport -exp all -scale 256 -parallel 0 -o report.html
//
// The page is deterministic: the same experiments at the same scale always
// render the same bytes (no timestamps, no map iteration, fixed number
// formatting), so reports from two commits can be diffed directly.
//
// -plain disables the streaming histograms, timelines, and flight
// recorders and reports only the legacy surfaces (tables, notes,
// breakdowns, telemetry); the shared surfaces are byte-identical either
// way, which TestHistFlightByteIdentical pins.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"imca/internal/experiments"
	"imca/internal/parallel"
	"imca/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to render (figure id, or 'all')")
		scale   = flag.Int("scale", 64, "divide the paper's workload parameters by this factor (1 = full scale)")
		workers = flag.Int("parallel", 1, "run up to N experiment points concurrently (0 = one per core)")
		out     = flag.String("o", "report.html", "output HTML file ('-' for stdout)")
		plain   = flag.Bool("plain", false, "legacy surfaces only: no histograms, timelines, or flight recorders")
	)
	flag.Parse()

	opts := experiments.Options{
		Scale:     *scale,
		Workers:   parallel.Workers(*workers),
		Breakdown: true,
		Telemetry: true,
		Hists:     !*plain,
		Flight:    !*plain,
	}

	var list []experiments.Experiment
	if *exp == "all" {
		list = experiments.Registry
	} else {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "imcareport: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		list = []experiments.Experiment{e}
	}

	var results []*experiments.Result
	for _, e := range list {
		results = append(results, e.Run(opts))
	}

	f := os.Stdout
	if *out != "-" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imcareport: %v\n", err)
			os.Exit(1)
		}
	}
	w := bufio.NewWriter(f)
	title := fmt.Sprintf("IMCa experiment report — %s, scale 1/%d", *exp, *scale)
	err := report.Write(w, title, results)
	if err == nil {
		err = w.Flush()
	}
	if f != os.Stdout {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "imcareport: %v\n", err)
		os.Exit(1)
	}
	if f != os.Stdout {
		fmt.Printf("wrote %d experiment(s) to %s\n", len(results), *out)
	}
}
