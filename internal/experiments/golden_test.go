package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"imca/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry_scale4096.* from this run")

// rendering is one run of the whole registry. shown is what an unobserved
// run prints: every table and claim and the closing scorecard. observed is
// the same stream with everything observation attached to each experiment
// after its claims — breakdowns, telemetry dumps, the Chrome-trace export of
// its retained operations.
type rendering struct {
	results         []*Result
	shown, observed []byte
	err             error
}

func render(o Options) rendering {
	var r rendering
	var sb, ob bytes.Buffer
	var claims []Claim
	for _, e := range Registry {
		res := e.Run(o)
		r.results, claims = append(r.results, res), append(claims, res.Claims...)
		start := sb.Len()
		fmt.Fprintf(&sb, "== %s ==\n", res.Name)
		res.Table.Render(&sb)
		for _, c := range res.Claims {
			fmt.Fprintln(&sb, c)
		}
		ob.Write(sb.Bytes()[start:])
		for _, nb := range res.Breakdowns {
			fmt.Fprintf(&ob, "-- %s --\n", nb.Title)
			nb.Breakdown.Report(&ob)
		}
		for _, d := range res.Telemetry {
			fmt.Fprintf(&ob, "-- %s --\n%s", d.Title, d.Text)
		}
		if len(res.Ops) > 0 {
			if err := telemetry.WriteChromeTrace(&ob, res.Ops); err != nil {
				r.err = fmt.Errorf("%s: trace export: %w", res.Name, err)
				return r
			}
		}
	}
	card := fmt.Sprintf("== scorecard ==\n%s\n", Scorecard(claims))
	sb.WriteString(card)
	ob.WriteString(card)
	r.shown, r.observed = sb.Bytes(), ob.Bytes()
	return r
}

// The registry at scale 4096 is rendered at most three times per package
// run, whichever of the tests below ask for it: plain and serial, observed
// and serial, observed with four workers.
var (
	registryScale = Options{Scale: 4096}
	plainRender   = sync.OnceValue(func() rendering { return render(registryScale) })
	serialRender  = sync.OnceValue(func() rendering { return render(Options{Scale: registryScale.Scale, Observe: true}) })
	workersRender = sync.OnceValue(func() rendering {
		return render(Options{Scale: registryScale.Scale, Observe: true, Workers: 4})
	})
)

func rendered(t *testing.T, f func() rendering) rendering {
	t.Helper()
	r := f()
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r
}

// TestRegistryGolden is `make regdiff` at a size go test can afford: the
// plain serial render, every table and claim, byte for byte against
// testdata/registry_scale4096.golden, and the observed serial stream (too
// large to commit) by its SHA-256. A change not meant to move the model
// leaves both testdata files alone; one that is rewrites them with -update.
func TestRegistryGolden(t *testing.T) {
	const golden, digest = "testdata/registry_scale4096.golden", "testdata/registry_scale4096.observed.sha256"
	shown, observed := rendered(t, plainRender).shown, rendered(t, serialRender).observed
	sum := sha256.Sum256(observed)
	hash := hex.EncodeToString(sum[:]) + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, shown, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digest, []byte(hash), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	diffBytes(t, want, shown, "plain registry at scale 4096")
	wantSum, err := os.ReadFile(digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantSum) != hash {
		t.Errorf("observed stream SHA-256:\n got %swant %sif TestHistFlightByteIdentical passes, a breakdown, telemetry dump or trace export moved",
			hash, wantSum)
	}
}

// TestDeclarationIsTheTable runs the declaration checks on the plain render.
func TestDeclarationIsTheTable(t *testing.T) {
	checkDeclarations(t, registryScale, rendered(t, plainRender).results)
}

// TestHistFlightByteIdentical: observing a run — span tracing, the registry
// and sampler, latency histograms, the flight recorder — moves not a byte of
// what an unobserved run prints, its tables and claims, whether the registry
// runs serially or with four workers. Observation schedules nothing, so it
// moves no virtual time.
func TestHistFlightByteIdentical(t *testing.T) {
	plain := rendered(t, plainRender).shown
	diffBytes(t, plain, rendered(t, serialRender).shown, "observed serial tables and claims")
	diffBytes(t, plain, rendered(t, workersRender).shown, "observed parallel tables and claims")
}

// TestParallelByteIdentical is the engine's core guarantee: the observed
// registry rendered with four workers is byte for byte the serial one —
// tables, claims, breakdowns, telemetry dumps and trace exports alike.
// Points share nothing and are assembled in declaration order, so host
// scheduling is invisible.
func TestParallelByteIdentical(t *testing.T) {
	diffBytes(t, rendered(t, serialRender).observed, rendered(t, workersRender).observed, "observed with four workers")
}

// checkDeclarations: what a registry entry renders is what its figure
// declares — the systems' names as the columns, in order, the sweep as the
// rows — and no two systems of a figure share a name (Table.Value would
// silently read the first). Only the five time-series experiments have no
// declaration, and an unobserved run attaches nothing observation would,
// beyond ext-breakdown's decompositions, which are its subject.
func checkDeclarations(t *testing.T, o Options, results []*Result) {
	t.Helper()
	series := map[string]bool{"ext-breakdown": true, "ext-telemetry": true, "ext-fault": true, "ext-scale": true, "ext-degrade": true}
	for i, e := range Registry {
		res := results[i]
		if len(res.Telemetry)+len(res.Ops)+len(res.Timelines)+len(res.Flight)+len(res.Tracks) > 0 ||
			len(res.Breakdowns) > 0 && e.Name != "ext-breakdown" {
			t.Errorf("%s: an unobserved run attached observations", e.Name)
		}
		if e.decl == nil {
			if !series[e.Name] {
				t.Errorf("%s: a table-shaped entry with no declaration", e.Name)
			}
			continue
		}
		fig := e.decl(o)
		if fig.name != e.Name || res.Name != e.Name || res.Table.Title != fig.title {
			t.Errorf("%s: declared as %q (%q), rendered as %q (%q)", e.Name, fig.name, fig.title, res.Name, res.Table.Title)
		}
		if fig.labels != nil && len(fig.labels) != len(fig.rows) {
			t.Errorf("%s: %d labels for %d rows", e.Name, len(fig.labels), len(fig.rows))
		}
		if (fig.cell == nil) == (fig.column == nil) {
			t.Errorf("%s: exactly one of cell and column must be set", e.Name)
		}
		seen := make(map[string]bool)
		for i, s := range fig.systems {
			if seen[s.name] {
				t.Errorf("%s: two systems named %q", e.Name, s.name)
			}
			seen[s.name] = true
			if i >= len(res.Table.Columns) || res.Table.Columns[i] != s.name {
				t.Errorf("%s: column %d: declared %q, rendered %v", e.Name, i, s.name, res.Table.Columns)
			}
		}
		if len(res.Table.Columns) != len(fig.systems) {
			t.Errorf("%s: %d columns rendered, %d systems declared", e.Name, len(res.Table.Columns), len(fig.systems))
		}
		if res.Table.Rows() != len(fig.rows) {
			t.Fatalf("%s: %d rows rendered, %d declared", e.Name, res.Table.Rows(), len(fig.rows))
		}
		for i := range fig.rows {
			if res.Table.X(i) != fig.label(i) {
				t.Errorf("%s: row %d: declared %q, rendered %q", e.Name, i, fig.label(i), res.Table.X(i))
			}
		}
	}
}

// diffBytes fails with a located excerpt when two renderings diverge.
func diffBytes(t *testing.T, want, got []byte, label string) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	line, n := 1, min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s diverges at byte %d (line %d):\nwant: %q\ngot:  %q", label, i, line, excerpt(want, i), excerpt(got, i))
		}
		if want[i] == '\n' {
			line++
		}
	}
	t.Fatalf("%s is a strict prefix/extension: %d vs %d bytes", label, len(want), len(got))
}

func excerpt(b []byte, i int) string { return string(b[max(i-40, 0):min(i+40, len(b))]) }
