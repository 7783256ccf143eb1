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

// goldenConfig tweaks the default config for fixtures that exercise a
// path-dependent rule (the flight-recorder package is pointed at the
// fixture itself so the Kind.String totality rule runs there).
var goldenConfig = map[string]func(*Config){
	"flightkind": func(cfg *Config) { cfg.FlightPath = "imca/internal/lint/testdata/flightkind" },
}

// TestGolden runs the analyzer over each fixture package and compares the
// findings against its expected.txt, byte for byte. Each fixture
// exercises one check (plus one for the suppression machinery), so a
// behavior change in any check shows up as a golden diff.
func TestGolden(t *testing.T) {
	root := moduleRoot(t)
	for _, name := range []string{
		"wallclock", "randpkg", "maprange", "nogoroutine", "hostside", "tickpurity",
		"allocfree", "instrcomplete", "flightkind", "errdrop", "suppress",
	} {
		t.Run(name, func(t *testing.T) {
			rel := "internal/lint/testdata/" + name
			cfg := DefaultConfig("imca")
			if tweak, ok := goldenConfig[name]; ok {
				tweak(cfg)
			}
			findings, err := Run(root, []string{"./" + rel}, cfg)
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
// on its own repository under the committed baseline. Any new finding
// either needs a fix, an explicit //imcalint:allow annotation, or a
// deliberate, reviewed regeneration of lint.baseline; a baseline entry
// outliving its finding fails here too, as a stale report.
func TestRepoClean(t *testing.T) {
	root := moduleRoot(t)
	cfg := DefaultConfig("imca")
	cfg.BaselinePath = "lint.baseline"
	findings, err := Run(root, []string{"./..."}, cfg)
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

// TestBaselineRoundTrip pins the burn-down workflow: WriteBaseline
// records a fixture's findings, and a run against that baseline is
// clean — with line-number drift tolerated, since matching is on
// (file, check, message) only.
func TestBaselineRoundTrip(t *testing.T) {
	root := moduleRoot(t)
	pat := []string{"./internal/lint/testdata/errdrop"}
	base := filepath.Join(t.TempDir(), "base.txt")

	n, err := WriteBaseline(root, pat, DefaultConfig("imca"), base)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("WriteBaseline recorded %d findings, want 2", n)
	}

	cfg := DefaultConfig("imca")
	cfg.BaselinePath = base
	findings, err := Run(root, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("baselined run not clean: %v", findings)
	}

	// Shift every recorded line number: still clean.
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	shifted := strings.ReplaceAll(string(data), ".go:1", ".go:99")
	if shifted == string(data) {
		t.Fatal("test premise broken: no line numbers to shift")
	}
	if err := os.WriteFile(base, []byte(shifted), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err = Run(root, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("line-shifted baseline stopped matching: %v", findings)
	}
}

// TestBaselineStale verifies the shrink-only property: an entry matching
// no finding surfaces as a "baseline" finding pointing into the baseline
// file itself, and malformed entries are hard errors.
func TestBaselineStale(t *testing.T) {
	root := moduleRoot(t)
	pat := []string{"./internal/lint/testdata/errdrop"}
	base := filepath.Join(t.TempDir(), "base.txt")
	entry := "internal/lint/testdata/errdrop/errdrop.go:1: [errdrop] no such finding\n"
	if err := os.WriteFile(base, []byte("# header\n"+entry), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig("imca")
	cfg.BaselinePath = base
	findings, err := Run(root, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stale int
	for _, f := range findings {
		if f.Check == "baseline" {
			stale++
			if f.Pos.Filename != base || f.Pos.Line != 2 {
				t.Errorf("stale report points at %s:%d, want %s:2", f.Pos.Filename, f.Pos.Line, base)
			}
		}
	}
	if stale != 1 {
		t.Errorf("got %d stale baseline findings, want 1 (all: %v)", stale, findings)
	}

	if err := os.WriteFile(base, []byte("not a finding line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(root, pat, cfg); err == nil {
		t.Error("malformed baseline entry accepted")
	}
}

// TestBaselineSuppressionPrecedence pins the interaction of the two
// exception mechanisms: suppressions apply first, so a finding covered by
// both consumes its //imcalint:allow annotation and leaves the baseline
// entry stale. One finding cannot justify two exceptions.
func TestBaselineSuppressionPrecedence(t *testing.T) {
	root := moduleRoot(t)
	pat := []string{"./internal/lint/testdata/errdrop"}
	// The fixture's Allowed function suppresses exactly this finding.
	entry := "internal/lint/testdata/errdrop/errdrop.go:27: [errdrop] callback parameter k of Allowed is never invoked or forwarded — a stranded completion surfaces only as a deadlock; name it _ to declare the drop\n"
	base := filepath.Join(t.TempDir(), "base.txt")
	if err := os.WriteFile(base, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig("imca")
	cfg.BaselinePath = base
	findings, err := Run(root, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stale, errdrop int
	for _, f := range findings {
		switch f.Check {
		case "baseline":
			stale++
		case "errdrop":
			errdrop++
		}
	}
	if stale != 1 {
		t.Errorf("suppressed finding absorbed the baseline entry: %v", findings)
	}
	if errdrop != 2 {
		t.Errorf("got %d errdrop findings, want the fixture's 2: %v", errdrop, findings)
	}
}

// TestCacheReuse verifies the result cache end to end on the fixture
// whose findings exercise the most machinery (suppress: cached
// suppression state must be revalidated, not replayed): a second run
// reuses the cache file and reproduces the first run's findings exactly.
func TestCacheReuse(t *testing.T) {
	root := moduleRoot(t)
	for _, name := range []string{"suppress", "errdrop"} {
		t.Run(name, func(t *testing.T) {
			pat := []string{"./internal/lint/testdata/" + name}
			cfg := DefaultConfig("imca")
			cfg.CacheDir = t.TempDir()

			first, err := Run(root, pat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(cfg.CacheDir, "imcalint.json")); err != nil {
				t.Fatalf("cache file not written: %v", err)
			}
			second, err := Run(root, pat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 || len(first) != len(second) {
				t.Fatalf("cached run differs: %d vs %d findings", len(first), len(second))
			}
			for i := range first {
				if first[i].String() != second[i].String() {
					t.Errorf("finding %d differs: %q vs %q", i, first[i], second[i])
				}
			}
		})
	}
}

// TestCacheKeyFingerprint verifies that policy changes invalidate cache
// keys: the same package hashes differently under a different enabled-
// check set or host-side allowlist, so stale results can never be reused
// across config changes.
func TestCacheKeyFingerprint(t *testing.T) {
	root := moduleRoot(t)
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal/lint/testdata/errdrop")
	h := newDepHasher(root, module)
	cfg := DefaultConfig("imca")

	all := map[string]bool{}
	for _, c := range Checks {
		all[c] = true
	}
	base, err := h.key(dir, cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	one, err := h.key(dir, cfg, map[string]bool{"errdrop": true})
	if err != nil {
		t.Fatal(err)
	}
	if base == one {
		t.Error("enabled-check set not in the cache key")
	}
	cfg2 := DefaultConfig("imca")
	cfg2.HostSide = append(cfg2.HostSide, "imca/internal/lint/testdata/errdrop")
	host, err := h.key(dir, cfg2, all)
	if err != nil {
		t.Fatal(err)
	}
	if base == host {
		t.Error("host-side allowlist not in the cache key")
	}
	again, err := newDepHasher(root, module).key(dir, cfg, all)
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Error("cache key not deterministic across hasher instances")
	}
}

// TestHotPathRoots verifies the parse-only root listing that cmd/benchdiff
// cross-checks benchmark coverage against: the repo's annotated roots are
// found without type-checking, with their notes.
func TestHotPathRoots(t *testing.T) {
	root := moduleRoot(t)
	roots, err := HotPathRoots(root, []string{"./internal/sim", "./internal/flight", "./internal/telemetry"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"internal/sim.Env.RunUntil":       false,
		"internal/flight.Recorder.Append": false,
		"internal/telemetry.Hist.Observe": false,
	}
	for _, r := range roots {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.Note == "" {
			t.Errorf("root %s has an empty note", r.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("annotated root %s not listed (got %v)", name, roots)
		}
	}
}

// TestOutputForms verifies that the JSON and SARIF encodings agree with
// the text form on count and content.
func TestOutputForms(t *testing.T) {
	root := moduleRoot(t)
	findings, err := Run(root, []string{"./internal/lint/testdata/errdrop"}, DefaultConfig("imca"))
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf, sarifBuf strings.Builder
	if err := WriteJSON(&jsonBuf, findings); err != nil {
		t.Fatal(err)
	}
	if err := WriteSARIF(&sarifBuf, findings); err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !strings.Contains(jsonBuf.String(), f.Msg) {
			t.Errorf("JSON output missing finding %q", f.Msg)
		}
		if !strings.Contains(sarifBuf.String(), f.Msg) {
			t.Errorf("SARIF output missing finding %q", f.Msg)
		}
	}
	if !strings.Contains(sarifBuf.String(), `"version": "2.1.0"`) {
		t.Error("SARIF output missing version")
	}
	for _, check := range Checks {
		if !strings.Contains(sarifBuf.String(), `"id": "`+check+`"`) {
			t.Errorf("SARIF rules missing check %s", check)
		}
	}
}
