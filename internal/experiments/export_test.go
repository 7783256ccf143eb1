package experiments

import (
	"sync"
	"testing"
)

// ClaimScale is the one scale the package's tests render the registry at:
// the largest at which every claim is reproduced or cites the deviation it
// hits (scripts/scales.sh prints the claims at every scale), so the
// registry golden pins claims and not bytes alone.
const ClaimScale = 1024

// RunAll runs every registry entry with o, in registry order.
func RunAll(o Options) []*Result {
	var out []*Result
	for _, e := range Registry {
		out = append(out, e.Run(o))
	}
	return out
}

// PlainRun is the registry at ClaimScale, unobserved and serial, run once
// for every test of the package that reads it, internal or external.
var PlainRun = sync.OnceValue(func() []*Result { return RunAll(Options{Scale: ClaimScale}) })

// CheckDeclarations: what a registry entry renders is what its figure
// declares — the systems' names as the columns, in order, the sweep as the
// rows — and no two systems of a figure share a name (Table.Value would
// silently read the first). Only the four time-series experiments have no
// declaration, and an unobserved run attaches nothing observation would,
// beyond ext-breakdown's decompositions, which are its subject. It is
// exported to golden_test.go, an external test so that it can render
// through the report package, which imports this one.
func CheckDeclarations(t *testing.T, o Options, results []*Result) {
	t.Helper()
	series := map[string]bool{"ext-breakdown": true, "ext-telemetry": true, "ext-fault": true, "ext-scale": true}
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
