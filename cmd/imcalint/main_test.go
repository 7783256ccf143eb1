package main

import (
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

// The fixture package used throughout: two errdrop findings, nothing
// else (pinned by internal/lint's golden test).
const fixture = "./internal/lint/testdata/errdrop"

func TestCheckFilter(t *testing.T) {
	code, stdout, _ := runCLI(t, "-check", "errdrop", fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if n := strings.Count(stdout, "[errdrop]"); n != 2 {
		t.Errorf("got %d errdrop findings, want 2:\n%s", n, stdout)
	}

	code, stdout, _ = runCLI(t, "-check", "wallclock", fixture)
	if code != 0 || stdout != "" {
		t.Errorf("filtered run: exit %d with output %q, want clean", code, stdout)
	}

	code, _, stderr := runCLI(t, "-check", "warpdrive", fixture)
	if code != 2 || !strings.Contains(stderr, "unknown check") {
		t.Errorf("unknown check: exit %d, stderr %q", code, stderr)
	}
}
