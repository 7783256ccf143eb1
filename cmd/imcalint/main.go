// Command imcalint runs the repository's whole-program static analyzer
// (internal/lint) over the given package patterns.
//
//	imcalint ./...
//	imcalint -check maprange,errdrop ./internal/...
//
// Findings print one per line as "file:line: [check] message" and the
// exit status is 1 when any are found (2 on usage or analysis errors).
// Intentional exceptions are annotated at the offending line:
//
//	//imcalint:allow <check> <reason>
//
// An annotation with no finding under it is itself a finding. See
// internal/lint's package documentation for the six checks and the
// invariants behind them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"imca/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: argv after the program
// name, the two output streams, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imcalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checkList := fs.String("check", "", "comma-separated checks to run (default: all of "+strings.Join(lint.Checks, ",")+")")
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

	cfg := lint.DefaultConfig("imca")
	if *checkList != "" {
		cfg.Enabled = strings.Split(*checkList, ",")
	}

	findings, err := lint.Run(root, fs.Args(), cfg)
	if err != nil {
		return fatal(stderr, err)
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
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
