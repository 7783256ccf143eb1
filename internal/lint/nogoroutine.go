package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// checkNoGoroutine enforces single-threadedness everywhere except the
// host-side allowlist: the kernel runs exactly one process at a time, so
// go statements, native channels, and sync primitives in simulated code
// either deadlock, race, or — worst — silently reorder events between
// runs. A coroutine is a goroutine: iter.Pull and iter.Pull2 start one, so
// a layer that called them would run code the kernel does not schedule.
// Concurrency in simulated code is expressed with sim.Event, sim.Resource,
// and sim.Barrier. The kernel's own iter.Pull — the coroutine every process
// runs on — carries the one explicit suppression; packages that are
// genuinely host-side (worker pools, real daemons) are exempted as whole
// packages via Config.HostSide.
func checkNoGoroutine(pkg *pkgInfo, cfg *Config) []Finding {
	if cfg.hostSide(pkg.path) {
		return nil
	}
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: pkg.pos(pos), Check: "nogoroutine", Msg: msg})
	}
	for _, f := range pkg.files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				flag(imp.Pos(), "import of "+path+" in a sim-side package — the kernel is single-threaded; locks hide ordering bugs")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				flag(n.Pos(), "go statement in a sim-side package — spawn sim processes (Env.Process) instead")
			case *ast.SendStmt:
				flag(n.Pos(), "native channel send in a sim-side package — use sim.Event for virtual-time signalling")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					flag(n.Pos(), "native channel receive in a sim-side package — use sim.Event for virtual-time signalling")
				}
			case *ast.SelectorExpr:
				if fn, ok := pkg.info.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "iter" &&
					(fn.Name() == "Pull" || fn.Name() == "Pull2") {
					flag(n.Pos(), "iter."+fn.Name()+" in a sim-side package — it starts a coroutine, a goroutine the kernel does not schedule; spawn sim processes (Env.Process) instead")
				}
			case *ast.SelectStmt:
				flag(n.Pos(), "select statement in a sim-side package — use sim.Event for virtual-time choice")
			case *ast.ChanType:
				flag(n.Pos(), "native channel type in a sim-side package — use sim.Event for virtual-time signalling")
				return false // make(chan T) holds the ChanType; one finding is enough
			}
			return true
		})
	}
	return out
}
