// Command imcalint runs the repository's whole-program static analyzer
// (internal/lint) over the given package patterns.
//
//	imcalint ./...
//	imcalint -check allocfree,errdrop ./internal/...
//	imcalint -json ./...                     # machine-readable findings
//	imcalint -sarif-file lint.sarif ./...    # GitHub code-scanning log
//	imcalint -fix-baseline ./...             # regenerate lint.baseline
//
// Findings print one per line as "file:line: [check] message" and the
// exit status is 1 when any are found (2 on usage or analysis errors).
// Intentional one-line exceptions are annotated at the offending line:
//
//	//imcalint:allow <check> <reason>
//
// Known findings tracked for burn-down live in lint.baseline at the
// module root; -fix-baseline is the only way to regenerate it, so every
// burn-down step is an explicit diff. See internal/lint's package
// documentation for the eight checks and the invariants behind them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"imca/internal/lint"
)

// cacheDir is where per-package results are memoized between runs,
// relative to the module root. It is gitignored; -no-cache disables it.
const cacheDir = ".cache/imcalint"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: argv after the program
// name, the two output streams, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checkList   = fs.String("check", "", "comma-separated checks to run (default: all of "+strings.Join(lint.Checks, ",")+")")
		jsonOut     = fs.Bool("json", false, "write findings as a JSON array instead of text")
		sarifFile   = fs.String("sarif-file", "", "also write findings as SARIF 2.1.0 to this file")
		baseline    = fs.String("baseline", "lint.baseline", "baseline file relative to the module root (\"\" disables)")
		fixBaseline = fs.Bool("fix-baseline", false, "regenerate the baseline from the current findings and exit")
		noCache     = fs.Bool("no-cache", false, "disable the per-package result cache")
		roots       = fs.Bool("roots", false, "list //imcalint:hotpath roots instead of running checks")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: imcalint [flags] [packages...]   (defaults to ./...)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return fatal(stderr, err)
	}

	if *roots {
		hps, err := lint.HotPathRoots(root, fs.Args())
		if err != nil {
			return fatal(stderr, err)
		}
		for _, r := range hps {
			fmt.Fprintf(stdout, "%s:%d: %s — %s\n", r.File, r.Line, r.Name, r.Note)
		}
		return 0
	}

	cfg := lint.DefaultConfig("imca")
	if *checkList != "" {
		cfg.Enabled = strings.Split(*checkList, ",")
	}
	cfg.BaselinePath = *baseline
	if !*noCache {
		cfg.CacheDir = filepath.Join(root, filepath.FromSlash(cacheDir))
	}

	if *fixBaseline {
		if *baseline == "" {
			return fatal(stderr, fmt.Errorf("-fix-baseline needs a -baseline path"))
		}
		n, err := lint.WriteBaseline(root, fs.Args(), cfg, *baseline)
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "imcalint: wrote %d finding(s) to %s\n", n, *baseline)
		return 0
	}

	findings, err := lint.Run(root, fs.Args(), cfg)
	if err != nil {
		return fatal(stderr, err)
	}
	if *sarifFile != "" {
		f, err := os.Create(*sarifFile)
		if err != nil {
			return fatal(stderr, err)
		}
		err = lint.WriteSARIF(f, findings)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fatal(stderr, err)
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			return fatal(stderr, err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "imcalint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "imcalint: %v\n", err)
	return 2
}
