package experiments

import "testing"

// grids is the declaration behind every table-shaped registry entry.
var grids = map[string]func(Options) figure{
	"fig1a":         func(o Options) figure { return fig1(o, 4<<30, "fig1a") },
	"fig1b":         func(o Options) figure { return fig1(o, 8<<30, "fig1b") },
	"fig5":          func(o Options) figure { return fig5(o, 1, "fig5") },
	"fig5-short":    func(o Options) figure { return fig5(o, fig5ShortStride, "fig5-short") },
	"fig6a":         fig6a,
	"fig6b":         fig6b,
	"fig6c":         fig6c,
	"fig7a":         fig7a,
	"fig7b":         fig7b,
	"fig8a":         func(o Options) figure { return fig8(o, "fig8a", 64) },
	"fig8b":         func(o Options) figure { return fig8(o, "fig8b", 1024) },
	"fig8c":         func(o Options) figure { return fig8(o, "fig8c", 8192) },
	"fig8d":         func(o Options) figure { return fig8(o, "fig8d", 65536) },
	"fig9":          fig9,
	"fig10":         fig10,
	"ext-rdma":      extRDMA,
	"ext-hash":      extHash,
	"ext-lustre":    extLustre,
	"ext-sharing":   extSharing,
	"ext-smallfile": extSmallFiles,
	"ext-mdtest":    extMDTest,
	"ext-bricks":    extBricks,
}

// TestDeclarationIsTheTable: what a registry entry renders is what its
// figure declares — the systems' names as the columns, in order, the sweep
// as the rows — and no two systems of a figure share a name (Table.Value
// would silently read the first). Every registry entry that is not one of
// the five time-series experiments must be declared.
func TestDeclarationIsTheTable(t *testing.T) {
	o := Options{Scale: 4096}
	series := map[string]bool{"ext-breakdown": true, "ext-telemetry": true, "ext-fault": true, "ext-scale": true, "ext-degrade": true}
	for _, e := range Registry {
		decl, ok := grids[e.Name]
		if !ok {
			if !series[e.Name] {
				t.Errorf("%s: a table-shaped entry with no declaration in grids", e.Name)
			}
			continue
		}
		fig, res := decl(o), e.Run(o)
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
