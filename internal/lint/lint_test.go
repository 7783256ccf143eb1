package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestGolden runs the analyzer over each fixture package and compares the
// findings against its expected.txt, byte for byte. Each fixture
// exercises one check (plus one for the suppression machinery), so a
// behavior change in any check shows up as a golden diff.
func TestGolden(t *testing.T) {
	root := moduleRoot(t)
	for _, name := range []string{
		"wallclock", "randpkg", "maprange", "nogoroutine", "hostside", "tickpurity",
		"errdrop", "suppress",
	} {
		t.Run(name, func(t *testing.T) {
			rel := "internal/lint/testdata/" + name
			findings, err := Run(root, []string{"./" + rel}, DefaultConfig("imca"))
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) == 0 {
				t.Fatal("fixture produced no findings; each violation package must fail")
			}
			var got strings.Builder
			for _, f := range findings {
				got.WriteString(strings.TrimPrefix(f.String(), rel+"/"))
				got.WriteString("\n")
			}
			wantBytes, err := os.ReadFile(filepath.Join(root, rel, "expected.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(wantBytes) {
				t.Errorf("findings differ from expected.txt\n--- got ---\n%s--- want ---\n%s", got.String(), wantBytes)
			}
		})
	}
}

// TestRepoClean is the acceptance invariant: the analyzer comes up clean
// on its own repository. Any new finding needs a fix or an explicit
// //imcalint:allow annotation with its reason; an annotation outliving its
// finding fails here too, as an unused suppression.
func TestRepoClean(t *testing.T) {
	root := moduleRoot(t)
	findings, err := Run(root, []string{"./..."}, DefaultConfig("imca"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestHostSideAllowlist verifies the nogoroutine package allowlist: the
// hostside fixture is all findings under the default policy (pinned by
// TestGolden) and exactly zero once its package is allowlisted — the
// whole-package exemption that lets host-side concurrency (the parallel
// sweep engine, the memcached daemon) pass without per-line suppressions.
func TestHostSideAllowlist(t *testing.T) {
	root := moduleRoot(t)
	cfg := DefaultConfig("imca")
	cfg.HostSide = append(cfg.HostSide, "imca/internal/lint/testdata/hostside")
	findings, err := Run(root, []string{"./internal/lint/testdata/hostside"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("allowlisted package still flagged: %s", f)
	}
}

// TestBuildConstraints: a package whose files declare one function under
// complementary build constraints loads and comes up clean — the loader
// takes a package's files from go/build, as the go command does.
func TestBuildConstraints(t *testing.T) {
	findings, err := Run(moduleRoot(t), []string{"./internal/lint/testdata/buildtags"}, DefaultConfig("imca"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSuppressionCovers verifies both placements: trailing on the line and
// on the line immediately above.
func TestSuppressionCovers(t *testing.T) {
	findings := applySuppressions(
		[]Finding{
			{Pos: positionAt("a.go", 10), Check: "wallclock", Msg: "x"},
			{Pos: positionAt("a.go", 21), Check: "rand", Msg: "y"},
			{Pos: positionAt("a.go", 30), Check: "rand", Msg: "z"}, // wrong check below
		},
		[]*suppression{
			{file: "a.go", line: 10, check: "wallclock", reason: "same line"},
			{file: "a.go", line: 20, check: "rand", reason: "line above"},
			{file: "a.go", line: 30, check: "wallclock", reason: "mismatched"},
		},
		nil, // all checks enabled
	)
	var kept []string
	for _, f := range findings {
		kept = append(kept, f.Check+":"+f.Msg)
	}
	want := []string{
		"rand:z",
		"suppress:suppression for wallclock matches no finding — remove it or move it to the offending line",
	}
	if len(kept) != len(want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Errorf("kept[%d] = %q, want %q", i, kept[i], want[i])
		}
	}
}

// TestStackedSuppressions verifies that one line can carry two findings
// of different checks, suppressed independently: one annotation trailing
// on the line, the other on the line above. Both must be consumed, so
// neither is reported unused.
func TestStackedSuppressions(t *testing.T) {
	findings := applySuppressions(
		[]Finding{
			{Pos: positionAt("a.go", 10), Check: "wallclock", Msg: "x"},
			{Pos: positionAt("a.go", 10), Check: "nogoroutine", Msg: "y"},
		},
		[]*suppression{
			{file: "a.go", line: 9, check: "wallclock", reason: "line above"},
			{file: "a.go", line: 10, check: "nogoroutine", reason: "same line"},
		},
		nil,
	)
	for _, f := range findings {
		t.Errorf("stacked suppressions left a finding: %s [%s] %s", f.Pos.Filename, f.Check, f.Msg)
	}
}

// TestSuppressionEnabledFilter verifies that restricting the run to some
// checks never reports the other checks' suppressions as unused: a
// -check wallclock run must not complain about a perfectly good
// nogoroutine annotation it never evaluated.
func TestSuppressionEnabledFilter(t *testing.T) {
	sups := func() []*suppression {
		return []*suppression{{file: "a.go", line: 5, check: "nogoroutine", reason: "kernel handshake"}}
	}
	if got := applySuppressions(nil, sups(), map[string]bool{"wallclock": true}); len(got) != 0 {
		t.Errorf("disabled check's suppression reported unused: %v", got)
	}
	if got := applySuppressions(nil, sups(), map[string]bool{"nogoroutine": true}); len(got) != 1 || got[0].Check != "suppress" {
		t.Errorf("enabled check's unused suppression not reported: %v", got)
	}
}

// TestEnabledFilter verifies Config.Enabled end to end: the errdrop
// fixture is all findings under its own check and silent when only
// wallclock runs, and an unknown name is an error, not a silent no-op.
func TestEnabledFilter(t *testing.T) {
	root := moduleRoot(t)
	pat := []string{"./internal/lint/testdata/errdrop"}

	cfg := DefaultConfig("imca")
	cfg.Enabled = []string{"wallclock"}
	findings, err := Run(root, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("disabled errdrop still reported: %v", findings)
	}

	cfg = DefaultConfig("imca")
	cfg.Enabled = []string{"warpdrive"}
	if _, err := Run(root, pat, cfg); err == nil {
		t.Error("unknown check name accepted")
	}
}
