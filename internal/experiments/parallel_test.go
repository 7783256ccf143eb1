package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"imca/internal/telemetry"
)

// renderAll runs every experiment in the registry with the given options
// and renders into one byte stream the tables and notes and, with observed
// set, everything else a user can see — breakdowns, telemetry dumps, and
// the Chrome-trace export of retained operations.
func renderAll(t *testing.T, o Options, observed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range Registry {
		res := e.Run(o)
		fmt.Fprintf(&buf, "== %s ==\n", res.Name)
		res.Table.Render(&buf)
		for _, n := range res.Notes {
			fmt.Fprintf(&buf, "note: %s\n", n)
		}
		if !observed {
			continue
		}
		for _, nb := range res.Breakdowns {
			fmt.Fprintf(&buf, "-- %s --\n", nb.Title)
			nb.Breakdown.Report(&buf)
		}
		for _, d := range res.Telemetry {
			fmt.Fprintf(&buf, "-- %s --\n%s", d.Title, d.Text)
		}
		if len(res.Ops) > 0 {
			if err := telemetry.WriteChromeTrace(&buf, res.Ops); err != nil {
				t.Fatalf("%s: trace export: %v", res.Name, err)
			}
		}
	}
	return buf.Bytes()
}

// TestParallelByteIdentical is the engine's core guarantee: the full
// figure registry rendered with four workers is byte-for-byte the output
// of the serial run — tables, notes, breakdowns, telemetry dumps, and
// Perfetto trace exports alike. Experiment points share nothing and are
// assembled in declaration order, so host scheduling must be invisible.
func TestParallelByteIdentical(t *testing.T) {
	o := Options{Scale: 4096, Observe: true}
	serial := renderAll(t, o, true)
	o.Workers = 4
	par := renderAll(t, o, true)
	if !bytes.Equal(serial, par) {
		line := 1
		n := len(serial)
		if len(par) < n {
			n = len(par)
		}
		for i := 0; i < n; i++ {
			if serial[i] != par[i] {
				t.Fatalf("parallel output diverges from serial at byte %d (line %d):\nserial: %q\nparallel: %q",
					i, line, excerpt(serial, i), excerpt(par, i))
			}
			if serial[i] == '\n' {
				line++
			}
		}
		t.Fatalf("parallel output is a strict prefix/extension of serial: %d vs %d bytes", len(serial), len(par))
	}
}

// TestHistFlightByteIdentical is the observability counterpart: observing
// a run — span tracing, the registry and sampler, latency histograms, the
// flight recorder — must not move a single byte of what an unobserved run
// prints, its tables and notes, whether the registry runs serially or with
// four workers. Span, histogram and flight appends are pure memory writes
// that schedule nothing, so the virtual-time history of every run is
// unchanged.
func TestHistFlightByteIdentical(t *testing.T) {
	plain := renderAll(t, Options{Scale: 4096}, false)
	diffBytes(t, plain, renderAll(t, Options{Scale: 4096, Observe: true}, false), "observed serial")
	diffBytes(t, plain, renderAll(t, Options{Scale: 4096, Observe: true, Workers: 4}, false), "observed parallel")
}

// diffBytes fails with a located excerpt when two renderings diverge.
func diffBytes(t *testing.T, want, got []byte, label string) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	line := 1
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s output diverges at byte %d (line %d):\nwant: %q\ngot:  %q",
				label, i, line, excerpt(want, i), excerpt(got, i))
		}
		if want[i] == '\n' {
			line++
		}
	}
	t.Fatalf("%s output is a strict prefix/extension: %d vs %d bytes", label, len(want), len(got))
}

func excerpt(b []byte, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}
