// Command imcabench regenerates the paper's tables and figures from the
// simulated testbed.
//
// Usage:
//
//	imcabench -list
//	imcabench -exp fig5 [-scale 64] [-csv] [-plot]
//	imcabench -exp all  [-scale 64] [-parallel 4]
//
// Scale divides the paper's full workload parameters (262144 files, 1 GB
// files, 6 GB MCDs); -scale 1 runs the full-size experiment. Results are
// virtual-time measurements and are deterministic for a given scale.
//
// -parallel N runs up to N experiment points (figure cells, each its own
// isolated simulation) concurrently on the host; 0 means one worker per
// core. Tables and claims are byte-identical to a serial run — only the
// wall clock changes.
//
// Under each table the figure's claims print one per line, each with the
// status the run gives it (reproduced, deviates citing a known deviation,
// or UNEXPLAINED), and the output ends with the scorecard of every claim
// printed.
//
// imcabench prints what a run measures. What observing the run saw —
// per-layer breakdowns, telemetry and flight-recorder dumps, latency
// timelines, and the Perfetto trace — is cmd/imcareport's to render.
//
// -cpuprofile / -memprofile write pprof profiles of the whole run. Host-side
// performance is measured by benchmark/ (make benchpairs), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"imca/internal/experiments"
	"imca/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: argv after the program
// name, the two output streams, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		exp     = fs.String("exp", "", "experiment to run (figure id, or 'all')")
		scale   = fs.Int("scale", 64, "divide the paper's workload parameters by this factor (1 = full scale)")
		workers = fs.Int("parallel", 1, "run up to N experiment points concurrently (0 = one per core)")
		csv     = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		plot    = fs.Bool("plot", false, "render an ASCII chart as well")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run (inspect with go tool pprof)")
		memProf = fs.String("memprofile", "", "write a heap profile at exit (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "  %-7s %s\n", e.Name, e.Description)
		}
		if !*list {
			return 2
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fatal(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.Options{Scale: *scale, Workers: parallel.Workers(*workers)}
	var claims []experiments.Claim
	runExp := func(e experiments.Experiment) {
		start := time.Now() //imcalint:allow wallclock host-side: reports how long the simulation took to execute
		res := e.Run(opts)
		//imcalint:allow wallclock host-side: wall duration of the run, printed next to virtual results
		wall := time.Since(start)
		fmt.Fprintf(stdout, "\n== %s (scale 1/%d, %s wall) ==\n", e.Name, *scale, wall.Round(time.Millisecond))
		if *csv {
			res.Table.CSV(stdout)
		} else {
			res.Table.Render(stdout)
		}
		if *plot {
			fmt.Fprintln(stdout)
			res.Table.Plot(stdout, 16)
		}
		for _, c := range res.Claims {
			fmt.Fprintln(stdout, c)
		}
		claims = append(claims, res.Claims...)
	}

	if *exp == "all" {
		for _, e := range experiments.Registry {
			runExp(e)
		}
	} else {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(stderr, "imcabench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		runExp(e)
	}
	fmt.Fprintf(stdout, "\n== scorecard ==\n%s\n", experiments.Scorecard(claims))

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fatal(stderr, err)
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fatal(stderr, werr)
		}
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "imcabench: %v\n", err)
	return 1
}
