package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The taskparity check guards the repo's two-engine equivalence claim:
// every workload runs on either the goroutine-park engine (*sim.Proc) or
// the heap-scheduled continuation engine (*sim.Task), and the two must
// stay interchangeable. A type becomes "task-ready" the moment it
// declares one method whose first parameter is *sim.Task; from then on,
// every exported blocking operation on it — first parameter *sim.Proc —
// must have a <Name>T sibling, and the two siblings must consume the same
// kernel scheduling primitives. Sleep is Sleep on both engines; WaitT is
// Wait's continuation twin; reaching Acquire on one side and nothing on
// the other means the engines charge different schedule costs for the
// same operation and their traces diverge.
//
// The primitive sets are compared after normalization: Proc./Task.
// receivers are stripped and the task engine's trailing-T spellings fold
// onto their blocking twins (Event.WaitT ≡ Event.Wait, Resource.AcquireT
// ≡ Resource.Acquire). The walk is the same static DFS the other
// reachability checks use, widened to follow method values (the prebound
// continuations of pooled operation frames); calls through interfaces and
// through function values stored in fields remain invisible. It stops at
// kernel primitives and at the sibling pairs of the layers below: a pair
// answers for the primitives and pairs it reaches itself, and a divergence
// is reported once, at the pair that has it, not again at every caller.
//
// Types that are not yet task-ready are deliberately out of scope — the
// task engine is being grown layer by layer, and the check's job is to
// keep each converted surface complete, not to demand the whole tree
// convert at once. The sim kernel itself is exempt: it implements the
// primitives, so its Proc/Task method pairs are the definitions being
// normalized against, not consumers of them.
func checkTaskParity(ld *loader, pkg *pkgInfo, cfg *Config) []Finding {
	if cfg.SimPath == "" || pkg.path == cfg.SimPath {
		return nil
	}

	type method struct {
		decl  *ast.FuncDecl
		fn    *types.Func
		actor string // "Proc", "Task", or ""
	}
	byType := make(map[string]map[string]method)
	var typeNames []string
	taskReady := make(map[string]bool)
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			fn, ok := pkg.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			tname := recvTypeName(fd.Recv.List[0].Type)
			if byType[tname] == nil {
				byType[tname] = make(map[string]method)
				typeNames = append(typeNames, tname)
			}
			m := method{decl: fd, fn: fn, actor: firstParamActor(fn, cfg.SimPath)}
			byType[tname][fd.Name.Name] = m
			if m.actor == "Task" {
				taskReady[tname] = true
			}
		}
	}
	sort.Strings(typeNames)

	var out []Finding
	for _, tname := range typeNames {
		if !taskReady[tname] {
			continue
		}
		methods := byType[tname]
		names := make([]string, 0, len(methods))
		for name := range methods {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := methods[name]
			if m.actor != "Proc" || !ast.IsExported(name) || strings.HasSuffix(name, "T") {
				continue
			}
			sib, ok := methods[name+"T"]
			if !ok {
				out = append(out, Finding{
					Pos:   pkg.pos(m.decl.Name.Pos()),
					Check: "taskparity",
					Msg: tname + "." + name + " blocks a *sim.Proc but " + tname +
						" has no " + name + "T sibling — the task engine cannot drive this operation",
				})
				continue
			}
			if sib.actor != "Task" {
				out = append(out, Finding{
					Pos:   pkg.pos(sib.decl.Name.Pos()),
					Check: "taskparity",
					Msg: tname + "." + name + "T exists but its first parameter is not *sim.Task — " +
						"it is not the continuation sibling of " + tname + "." + name,
				})
				continue
			}
			procSet := schedSetOf(ld, m.fn, cfg.SimPath)
			taskSet := schedSetOf(ld, sib.fn, cfg.SimPath)
			procOnly, taskOnly := setDiff(procSet, taskSet)
			if len(procOnly) == 0 && len(taskOnly) == 0 {
				continue
			}
			msg := tname + "." + name + " and " + tname + "." + name + "T reach different scheduling primitives"
			if len(procOnly) > 0 {
				msg += "; proc-only: " + strings.Join(procOnly, ", ")
			}
			if len(taskOnly) > 0 {
				msg += "; task-only: " + strings.Join(taskOnly, ", ")
			}
			out = append(out, Finding{
				Pos:   pkg.pos(sib.decl.Name.Pos()),
				Check: "taskparity",
				Msg:   msg + " — the engines would charge different schedule costs for the same operation",
			})
		}
	}
	return out
}

// firstParamActor names the sim actor a function's first parameter is
// ("Proc", "Task"), or "" for anything else.
func firstParamActor(fn *types.Func, simPath string) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil || sig.Params().Len() == 0 {
		return ""
	}
	t := sig.Params().At(0).Type()
	if !isSimActor(t, simPath) {
		return ""
	}
	named := t.(*types.Pointer).Elem().(*types.Named)
	return named.Obj().Name()
}

// schedSetOf walks the static call graph from fn and returns the set of
// kernel scheduling primitives it reaches, normalized across engines.
func schedSetOf(ld *loader, fn *types.Func, simPath string) map[string]bool {
	rootKey, _ := siblingPairKey(fn, simPath)
	c := &schedCollector{
		idx:     ld.funcIndex(),
		simPath: simPath,
		rootKey: rootKey,
		visited: make(map[*types.Func]bool),
		set:     make(map[string]bool),
	}
	c.walkFunc(fn)
	return c.set
}

type schedCollector struct {
	idx     map[*types.Func]funcRef
	simPath string
	rootKey string // the pair being compared; a recursive reference is not a lower layer
	visited map[*types.Func]bool
	set     map[string]bool
}

func (c *schedCollector) walkFunc(f *types.Func) {
	f = f.Origin()
	if c.visited[f] {
		return
	}
	c.visited[f] = true
	ref, ok := c.idx[f]
	if !ok {
		return
	}
	c.walkBody(ref.pkg, ref.decl.Body)
}

// walkBody follows every reference to a function in body, not only the
// ones in call position: a method value stored on a pooled frame
// (`op.fnDone = op.done`) or handed to a primitive (`ev.WaitFn(op.collect)`)
// is a continuation the operation will run, so the frame's constructor
// reaching it is the operation reaching it. Every function reference ends
// in an identifier — bare, or the Sel of a selector — so identifiers are
// the only nodes that need resolving.
func (c *schedCollector) walkBody(pkg *pkgInfo, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		f, ok := pkg.info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if name, ok := simSchedFunc(f, c.simPath); ok {
			// Stop at the primitive: its internals (park vs continuation
			// push) are exactly the engine difference being abstracted.
			key := normalizeSched(strings.TrimPrefix(name, "sim."))
			if key == "Resource.Use" {
				// Use is Acquire, Sleep, Release by definition; a sibling
				// that spells the three out charges the same.
				c.set["Resource.Acquire"], c.set["Sleep"], c.set["Resource.Release"] = true, true, true
				return true
			}
			c.set[key] = true
			return true
		}
		if key, ok := siblingPairKey(f, c.simPath); ok && key != c.rootKey {
			// Stop at a lower layer's sibling pair too: Binding.Call and
			// Binding.CallT are one primitive to the layers above, and
			// whether the pair itself is in parity is that pair's own
			// finding, not every caller's.
			c.set[key] = true
			return true
		}
		c.walkFunc(f)
		return true
	})
}

// siblingPairKey reports whether f is one half of a Proc/Task sibling pair
// — an exported method X taking a *sim.Proc whose receiver also has an XT
// taking a *sim.Task, or that XT — and names the pair "Type.X" for both
// halves. Only the pairs checkTaskParity itself compares qualify: an
// unexported helper pair is walked into like any other callee, and an
// interface method has no body either engine's walk could enter.
func siblingPairKey(f *types.Func, simPath string) (string, bool) {
	f = f.Origin()
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !f.Exported() || types.IsInterface(sig.Recv().Type()) {
		return "", false
	}
	actor := firstParamActor(f, simPath)
	name, sibName, sibActor := f.Name(), f.Name()+"T", "Task"
	switch {
	case actor == "Task" && strings.HasSuffix(name, "T"):
		name = strings.TrimSuffix(name, "T")
		sibName, sibActor = name, "Proc"
	case actor != "Proc":
		return "", false
	}
	obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, f.Pkg(), sibName)
	sib, ok := obj.(*types.Func)
	if !ok || firstParamActor(sib, simPath) != sibActor {
		return "", false
	}
	recv, _, _ := strings.Cut(funcKey(f), ".")
	return recv + "." + name, true
}

// normalizeSched folds the task engine's spelling of a primitive onto the
// blocking engine's: receiver Proc/Task is dropped (Proc.Sleep and
// Task.Sleep are the same charge) and a trailing T is trimmed
// (Event.WaitT ≡ Event.Wait). Every T-suffixed name in simSchedMethods is
// a task variant, so the trim is safe.
func normalizeSched(key string) string {
	if recv, name, ok := strings.Cut(key, "."); ok && (recv == "Proc" || recv == "Task") {
		key = name
	}
	key = strings.TrimSuffix(key, "T")
	// Event.WaitFn is WaitT for pooled callers: same registration, same
	// one-event wake-up.
	if key == "Event.WaitFn" {
		return "Event.Wait"
	}
	// Proc.Spawn is literal sugar for Env.Process (one new actor, one
	// schedule), Env.StartTask is the continuation engine's spelling of
	// the same charge and Task.Start its spelling for a pooled actor; all
	// four fold together so a sibling pair may fan out with whichever
	// actor representation fits its workers.
	if key == "Spawn" || key == "Start" || key == "Env.StartTask" {
		return "Env.Process"
	}
	return key
}

// setDiff returns the sorted elements only in a and only in b.
func setDiff(a, b map[string]bool) (onlyA, onlyB []string) {
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	for k := range b {
		if !a[k] {
			onlyB = append(onlyB, k)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB
}
