// Package lint implements imcalint, a whole-program static analyzer for
// the simulator stack. The reproduction rests on two identical runs
// producing byte-identical tables and traces on a virtual clock. That is
// easy to break silently — a stray time.Now in a simulated layer, a map
// iterated into a report, a goroutine racing the kernel — so this package
// makes it machine-checked rather than conventional. (Allocation
// contracts are not checked here: the AllocsPerRun tests and the
// benchmark's allocs_per_op pin them where the code runs.)
//
// Six checks are implemented, each over the parsed and type-checked
// source of the packages under analysis (stdlib tooling only: go/parser,
// go/ast, go/types, go/importer):
//
//   - wallclock: no time.Now / time.Since / time.Sleep (or timer
//     construction) anywhere in the tree. Simulated code must use the
//     virtual clock; genuinely host-side code (the real memcached TCP
//     daemon, wall-time reporting in cmd/) carries an explicit
//     suppression.
//   - rand: no direct math/rand import outside internal/xrand; seeded
//     xrand generators keep workloads reproducible across runs and Go
//     versions.
//   - maprange: no `for range` over a map whose body emits output,
//     appends to a slice the function returns, registers instruments, or
//     drives simulated activity — unless the keys are collected and
//     sorted first.
//   - nogoroutine: no go statements, channel operations, sync
//     primitives, or coroutines (iter.Pull, iter.Pull2) anywhere except an
//     explicit host-side allowlist (Config.HostSide); the kernel runs
//     exactly one process at a time, on the one coroutine it starts, and
//     concurrency belongs to sim.Event/sim.Resource. Host-side packages
//     (the parallel sweep engine, the real memcached daemon) are exempt
//     as whole packages rather than line by line, so a new go statement
//     in simulated code can never hide behind a stale suppression.
//   - tickpurity: functions reachable from a sim.Env.SetTick observer
//     must not call scheduling methods; sampling can never advance the
//     clock.
//   - errdrop: no module-internal error result silently dropped in an
//     expression statement, and no completion-callback parameter a
//     function accepts but never calls or forwards — a dropped
//     continuation strands its task at the next deadlock diagnostic.
//
// Findings print as "file:line: [check] message". Intentional exceptions
// are annotated in the source as
//
//	//imcalint:allow <check> <reason>
//
// on the offending line or the line immediately above it. The reason is
// mandatory, and a suppression that matches no finding is itself reported,
// so the set of exceptions stays exact and self-documenting, and can only
// shrink when the finding under it goes.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Checks is the set of valid check names, in reporting order.
var Checks = []string{
	"wallclock", "rand", "maprange", "nogoroutine", "tickpurity", "errdrop",
}

// Finding is one rule violation.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String formats the finding as "file:line: [check] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Config selects which packages each check treats specially. Paths are
// full import paths. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// HostSide lists the packages exempt from the nogoroutine and errdrop
	// checks: code that legitimately uses host concurrency — worker pools
	// running whole simulations side by side, real network daemons — and
	// never executes inside a simulation. Every other package in the tree
	// is held to the single-threaded rule, so adding a package here is an
	// explicit, reviewable claim that nothing in it runs under the
	// kernel.
	HostSide []string
	// RandAllowed lists the packages that may import math/rand.
	RandAllowed []string
	// SimPath is the import path of the simulation kernel, used by the
	// maprange and tickpurity checks to recognize
	// scheduling calls and actor types. Empty disables those recognitions
	// (the checks still run on syntax).
	SimPath string
	// Enabled restricts the run to the named checks (nil or empty runs
	// all of them). Suppression validation is restricted to the enabled
	// set so filtering a check out never reports its suppressions as
	// stale.
	Enabled []string
}

// DefaultConfig returns the repository's own policy for the given module
// path.
func DefaultConfig(module string) *Config {
	sub := func(s string) string { return module + "/internal/" + s }
	return &Config{
		HostSide: []string{
			// The parallel sweep engine: runs isolated sim.Envs across a
			// worker pool, never inside one.
			sub("parallel"),
			// The real memcached protocol implementation and its daemon:
			// genuine TCP servers with genuine concurrency.
			sub("memcache"),
			module + "/cmd/memcached",
		},
		RandAllowed: []string{sub("xrand")},
		SimPath:     sub("sim"),
	}
}

func (c *Config) hostSide(path string) bool    { return contains(c.HostSide, path) }
func (c *Config) randAllowed(path string) bool { return contains(c.RandAllowed, path) }

// enabledSet resolves Enabled to a membership map over Checks, rejecting
// unknown names.
func (c *Config) enabledSet() (map[string]bool, error) {
	on := make(map[string]bool, len(Checks))
	if len(c.Enabled) == 0 {
		for _, name := range Checks {
			on[name] = true
		}
		return on, nil
	}
	for _, name := range c.Enabled {
		if !contains(Checks, name) {
			return nil, fmt.Errorf("lint: unknown check %q (valid: %s)", name, strings.Join(Checks, ", "))
		}
		on[name] = true
	}
	return on, nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Run analyzes the packages matched by patterns (import-path-relative
// directory patterns such as "./...", "./internal/...", or a single
// directory) under the module rooted at root, and returns the surviving
// findings sorted by position. Suppressed findings are dropped; malformed
// or unused suppressions are reported as findings themselves.
func Run(root string, patterns []string, cfg *Config) ([]Finding, error) {
	enabled, err := cfg.enabledSet()
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	ld, err := newLoader(root)
	if err != nil {
		return nil, err
	}

	var findings []Finding
	var sups []*suppression
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		pf, ps := checkPackage(ld, pkg, cfg, enabled)
		findings = append(findings, pf...)
		sups = append(sups, ps...)
	}
	relativize(root, findings, sups)

	findings = applySuppressions(findings, sups, enabled)
	sortFindings(findings)
	return dedupFindings(findings), nil
}

// checkPackage runs every enabled check over one package and collects its
// suppressions. Findings may be positioned in dependency packages: the
// reachability checks walk across package boundaries.
func checkPackage(ld *loader, pkg *pkgInfo, cfg *Config, enabled map[string]bool) ([]Finding, []*suppression) {
	var findings []Finding
	if enabled["wallclock"] {
		findings = append(findings, checkWallclock(pkg)...)
	}
	if enabled["rand"] {
		findings = append(findings, checkRand(pkg, cfg)...)
	}
	if enabled["maprange"] {
		findings = append(findings, checkMapRange(pkg, cfg)...)
	}
	if enabled["nogoroutine"] {
		findings = append(findings, checkNoGoroutine(pkg, cfg)...)
	}
	if enabled["tickpurity"] {
		findings = append(findings, checkTickPurity(ld, pkg, cfg)...)
	}
	if enabled["errdrop"] {
		findings = append(findings, checkErrDrop(ld, pkg, cfg)...)
	}
	sups, bad := collectSuppressions(pkg)
	findings = append(findings, bad...)
	return findings, sups
}

// relativize rewrites finding and suppression positions relative to the
// module root so output is stable no matter where the analyzer was invoked
// from.
func relativize(root string, findings []Finding, sups []*suppression) {
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return name
	}
	for i := range findings {
		findings[i].Pos.Filename = rel(findings[i].Pos.Filename)
	}
	for _, s := range sups {
		s.file = rel(s.file)
	}
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// dedupFindings drops findings identical in position and check: the
// cross-package reachability walk (tickpurity) can reach the same
// construct from observers in different packages, and one report per
// site is enough. Input must be sorted, so which message survives is
// deterministic.
func dedupFindings(findings []Finding) []Finding {
	out := findings[:0]
	for i, f := range findings {
		if i > 0 {
			p := findings[i-1]
			if p.Pos.Filename == f.Pos.Filename && p.Pos.Line == f.Pos.Line &&
				p.Pos.Column == f.Pos.Column && p.Check == f.Check {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// FindModuleRoot walks upward from dir to the directory containing go.mod
// and returns it.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves "./..." style patterns to package directories
// relative to root. The "..." walk skips testdata, hidden, and VCS
// directories; naming a testdata directory explicitly still works (that is
// how the self-tests run the analyzer on its fixture packages).
func expandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		switch {
		case pat == "..." || strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			start := filepath.Join(root, filepath.FromSlash(base))
			err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if names, err := goFiles(path); err != nil {
					return err
				} else if len(names) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(root, filepath.FromSlash(pat)))
		}
	}
	return dirs, nil
}
