package lint

import (
	"go/ast"
	"go/types"
)

// simSchedMethods names the sim-kernel entry points that schedule events,
// park processes, or otherwise advance the virtual clock, keyed as
// "Receiver.Method" (or a bare name for package functions). The unexported
// primitives are included so reachability analysis inside the kernel
// itself cannot slip past the exported surface.
// Env.Defer is in the set because *calling* it inserts a timer into the
// event heap — from a tick observer that is exactly the perturbation the
// check exists to catch. The callback it arms is a different matter: it
// runs later, in scheduler context, where scheduling is legal (the fault
// injector's whole mechanism), so a Defer callback is ordinary sim-side
// code and is never treated as an observer. Proc.Await schedules nothing
// itself, but it parks a process, which a tick observer — called with no
// process running — must never do.
var simSchedMethods = map[string]bool{
	"Env.Process": true, "Env.Run": true, "Env.Defer": true,
	"Env.StartTask": true,
	"Env.schedule":  true, "Env.wake": true,
	"Proc.Sleep": true, "Proc.park": true, "Proc.Await": true,
	"Task.Sleep": true, "Task.End": true, "Task.Start": true,
	"Event.Trigger": true, "Event.WaitFn": true,
	"Resource.Release": true, "Resource.AcquireT": true, "Resource.UseT": true,
	"Barrier.Wait": true, "Barrier.WaitT": true,
}

// calleeFunc resolves a call expression to the function or method object
// it statically invokes, or nil for indirect calls and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcKey renders a function object as "Receiver.Name" or "Name",
// collapsing generic instantiations to their origin.
func funcKey(f *types.Func) string {
	f = f.Origin()
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return f.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return f.Name()
	}
	return named.Origin().Obj().Name() + "." + f.Name()
}

// simSchedCallee reports whether call statically invokes one of the sim
// kernel's scheduling entry points, returning its display name.
func simSchedCallee(info *types.Info, call *ast.CallExpr, simPath string) (string, bool) {
	return simSchedFunc(calleeFunc(info, call), simPath)
}

// simSchedFunc reports whether f is one of the sim kernel's scheduling
// entry points, returning its display name.
func simSchedFunc(f *types.Func, simPath string) (string, bool) {
	if f == nil || simPath == "" || f.Pkg() == nil || f.Pkg().Path() != simPath {
		return "", false
	}
	key := funcKey(f)
	if simSchedMethods[key] {
		return "sim." + key, true
	}
	return "", false
}

// isSimActor reports whether t is *sim.Proc or *sim.Task — the two client
// engines' execution contexts.
func isSimActor(t types.Type, simPath string) bool {
	if simPath == "" || t == nil {
		return false
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return (obj.Name() == "Proc" || obj.Name() == "Task") &&
		obj.Pkg() != nil && obj.Pkg().Path() == simPath
}

// passesSimProc reports whether any argument of call is a *sim.Proc or
// *sim.Task: in this codebase, a function taking one can block or schedule
// continuations and so advance virtual time, which makes its invocation
// order part of the simulation's behaviour.
func passesSimProc(info *types.Info, call *ast.CallExpr, simPath string) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isSimActor(tv.Type, simPath) {
			return true
		}
	}
	return false
}
