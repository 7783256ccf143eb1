package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"imca/internal/experiments"
	"imca/internal/report"
	"imca/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the registry golden and digest from this run")

// rendering is one run of the whole registry. shown is what an unobserved
// run prints: every table and claim and the closing scorecard. observed is
// what the front door writes for the same run, `imcareport -exp all -o -
// -trace-out`: the HTML page (tables, claims, timelines, breakdowns,
// telemetry and flight dumps, scorecard) followed by the Chrome trace of
// every retained operation with the counter tracks merged in.
type rendering struct {
	results         []*experiments.Result
	shown, observed []byte
	err             error
}

// render renders the registry's results, as run with o.
func render(o experiments.Options, results []*experiments.Result) rendering {
	r := rendering{results: results}
	var sb, ob bytes.Buffer
	var claims []experiments.Claim
	for _, res := range r.results {
		claims = append(claims, res.Claims...)
		fmt.Fprintf(&sb, "== %s ==\n", res.Name)
		res.Table.Render(&sb)
		for _, c := range res.Claims {
			fmt.Fprintln(&sb, c)
		}
	}
	fmt.Fprintf(&sb, "== scorecard ==\n%s\n", experiments.Scorecard(claims))
	title := fmt.Sprintf("IMCa experiment report — all, scale 1/%d", o.Scale)
	if err := report.Write(&ob, title, r.results); err != nil {
		r.err = fmt.Errorf("report page: %w", err)
		return r
	}
	if _, _, err := report.WriteTrace(&ob, r.results); err != nil {
		r.err = fmt.Errorf("trace export: %w", err)
		return r
	}
	r.shown, r.observed = sb.Bytes(), ob.Bytes()
	return r
}

// The registry at experiments.ClaimScale is run at most three times per
// package run, whichever of the tests below ask for it: plain and serial
// (the run TestClaims judges), observed and serial, observed with four
// workers.
var (
	claimScale    = experiments.Options{Scale: experiments.ClaimScale}
	plainRender   = sync.OnceValue(func() rendering { return render(claimScale, experiments.PlainRun()) })
	serialRender  = sync.OnceValue(func() rendering { return renderRun(experiments.Options{Scale: claimScale.Scale, Observe: true}) })
	workersRender = sync.OnceValue(func() rendering {
		return renderRun(experiments.Options{Scale: claimScale.Scale, Observe: true, Workers: 4})
	})
)

// renderRun runs the registry with o and renders it.
func renderRun(o experiments.Options) rendering { return render(o, experiments.RunAll(o)) }

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
// testdata/registry_scale1024.golden (named after experiments.ClaimScale),
// and the observed serial stream (too large to commit) by its SHA-256. A
// change not meant to move the model leaves both testdata files alone; one
// that is rewrites them with -update.
func TestRegistryGolden(t *testing.T) {
	stem := fmt.Sprintf("testdata/registry_scale%d", experiments.ClaimScale)
	golden, digest := stem+".golden", stem+".observed.sha256"
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
	diffBytes(t, want, shown, "plain registry at "+stem)
	wantSum, err := os.ReadFile(digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantSum) != hash {
		t.Errorf("observed stream SHA-256:\n got %swant %sif TestHistFlightByteIdentical passes, the report page or trace export moved",
			hash, wantSum)
	}
}

// TestDeclarationIsTheTable runs the declaration checks on the plain render.
func TestDeclarationIsTheTable(t *testing.T) {
	experiments.CheckDeclarations(t, claimScale, rendered(t, plainRender).results)
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
// the report page and the trace export alike.
// Points share nothing and are assembled in declaration order, so host
// scheduling is invisible.
func TestParallelByteIdentical(t *testing.T) {
	diffBytes(t, rendered(t, serialRender).observed, rendered(t, workersRender).observed, "observed with four workers")
}

// TestLayersPartitionEveryOp: the per-layer decomposition is a partition
// of each operation's latency, not only of synthetic spans. Every operation
// the observed registry run retains — fig6a's instrumented IMCa-2K column
// among them — has layer self times that sum to its duration exactly.
func TestLayersPartitionEveryOp(t *testing.T) {
	var ops int
	for _, res := range rendered(t, serialRender).results {
		if res.Name == "fig6a" && len(res.Ops) == 0 {
			t.Error("fig6a retained no operations")
		}
		for _, op := range res.Ops {
			var sum sim.Duration
			for _, lt := range op.ByLayer() {
				sum += lt.Self
			}
			if sum != op.Dur() {
				t.Errorf("%s: op %d (%s): layer selves sum to %v, duration %v", res.Name, op.ID, op.Name, sum, op.Dur())
			}
			ops++
		}
	}
	t.Logf("%d operations partitioned", ops)
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
