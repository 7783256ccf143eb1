package main

import (
	"os"
	"path/filepath"
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

// TestFig6aReport pins one whole page — the report is deterministic, no
// wall time in it — rendered to stdout and to a file: the table, the
// notes, and every surface an observed fig6a run attaches.
func TestFig6aReport(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig6a_scale1024.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-exp", "fig6a", "-scale", "1024", "-o", "-")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("-o - differs from testdata/fig6a_scale1024.golden (%d bytes, want %d)", len(stdout), len(want))
	}

	file := filepath.Join(t.TempDir(), "fig6a.html")
	code, stdout, _ = runCLI(t, "-exp", "fig6a", "-scale", "1024", "-o", file)
	if got, err := os.ReadFile(file); code != 0 || err != nil || string(got) != string(want) {
		t.Errorf("-o FILE: exit %d, read error %v, page differs from the golden: %v", code, err, string(got) != string(want))
	}
	if stdout != "wrote 1 experiment(s) to "+file+"\n" {
		t.Errorf("-o FILE printed %q", stdout)
	}
}

func TestUsageErrors(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "fig99")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown experiment: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	// The retired legacy-surfaces switch.
	code, _, stderr = runCLI(t, "-plain")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("-plain: exit %d, stderr %q; want an unknown-flag usage error", code, stderr)
	}
}
