package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The allocfree check turns the repo's 0-alloc hot-path claims from
// runtime AllocsPerRun spot checks into compile-time guarantees. A
// function is marked as a hot-path root with
//
//	//imcalint:hotpath <note>
//
// in its doc comment (the note is mandatory — it says which benchmark or
// figure depends on the path). The check then walks the static call
// graph from every root — across package boundaries, through function
// literals — and flags each heap-allocating construct it can reach:
//
//   - function literals (each one allocates its closure),
//   - the append builtin (backing-array growth),
//   - make and new,
//   - address-taken composite literals and map/slice literals,
//   - non-constant string concatenation,
//   - string<->byte/rune-slice conversions,
//   - interface boxing: passing or converting a concrete non-pointer
//     value where an interface is expected.
//
// Arguments of panic calls are not walked: a deadlock diagnostic built
// with fmt.Sprintf is cold by definition. Calls through stored function
// values are invisible to the walk, as with any static analysis — which
// is exactly why the dispatch loop's ev.fn() indirection keeps the
// kernel root tractable.

const hotpathPrefix = "//imcalint:hotpath"

// hotpathRoot is one annotated function in a type-checked package.
type hotpathRoot struct {
	fn   *types.Func
	decl *ast.FuncDecl
	note string
}

// collectHotpathRoots finds the annotated functions of pkg. A directive
// outside a function's doc comment is a finding: an annotation that binds
// to nothing guards nothing.
func collectHotpathRoots(pkg *pkgInfo) ([]hotpathRoot, []Finding) {
	var roots []hotpathRoot
	var bad []Finding
	claimed := make(map[*ast.Comment]bool)
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(c.Text, hotpathPrefix)
				if !ok {
					continue
				}
				claimed[c] = true
				note := strings.TrimSpace(rest)
				if note == "" {
					bad = append(bad, Finding{Pos: pkg.pos(c.Pos()), Check: "allocfree",
						Msg: "hotpath annotation is missing a note — say which benchmark or figure depends on this path"})
					continue
				}
				if fd.Body == nil {
					bad = append(bad, Finding{Pos: pkg.pos(c.Pos()), Check: "allocfree",
						Msg: "hotpath annotation on a body-less declaration guards nothing"})
					continue
				}
				if obj, ok := pkg.info.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, hotpathRoot{fn: obj, decl: fd, note: note})
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, hotpathPrefix) && !claimed[c] {
					bad = append(bad, Finding{Pos: pkg.pos(c.Pos()), Check: "allocfree",
						Msg: "hotpath annotation must be in a function's doc comment — it binds to nothing here"})
				}
			}
		}
	}
	return roots, bad
}

// checkAllocFree walks the call graph from every hot-path root annotated
// in pkg and flags reachable allocation sites.
func checkAllocFree(ld *loader, pkg *pkgInfo, cfg *Config) []Finding {
	roots, out := collectHotpathRoots(pkg)
	if len(roots) == 0 {
		return out
	}
	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		w := &allocWalker{
			idx:      ld.funcIndex(),
			out:      &out,
			reported: reported,
			visited:  make(map[*types.Func]bool),
		}
		w.walkBody(pkg, root.decl.Body, []string{funcKey(root.fn)})
	}
	return out
}

type allocWalker struct {
	idx      map[*types.Func]funcRef
	out      *[]Finding
	reported map[token.Pos]bool
	visited  map[*types.Func]bool
}

func (w *allocWalker) flag(pkg *pkgInfo, pos token.Pos, chain []string, what string) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	*w.out = append(*w.out, Finding{
		Pos:   pkg.pos(pos),
		Check: "allocfree",
		Msg:   what + " on the hot path rooted at " + chain[0] + " (" + strings.Join(chain, " → ") + ")",
	})
}

func (w *allocWalker) walkFunc(f *types.Func, chain []string) {
	f = f.Origin()
	if w.visited[f] {
		return
	}
	w.visited[f] = true
	ref, ok := w.idx[f]
	if !ok {
		return // outside the module (or body-less): nothing to inspect
	}
	w.walkBody(ref.pkg, ref.decl.Body, append(chain, funcKey(f)))
}

func (w *allocWalker) walkBody(pkg *pkgInfo, body *ast.BlockStmt, chain []string) {
	info := pkg.info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.flag(pkg, n.Pos(), chain, "function literal allocates its closure")
			return true // continuation bodies run on the same hot path; keep walking
		case *ast.CallExpr:
			return w.call(pkg, n, chain)
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
					w.flag(pkg, n.Pos(), chain, "non-constant string concatenation allocates")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.flag(pkg, n.Pos(), chain, "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					w.flag(pkg, n.Pos(), chain, "map literal allocates")
				case *types.Slice:
					w.flag(pkg, n.Pos(), chain, "slice literal allocates its backing array")
				}
			}
		}
		return true
	})
}

// call handles one call expression on the walk: builtins, conversions,
// boxing at the call boundary, and recursion into statically resolved
// module callees. It returns false to stop the inspection from
// descending (panic arguments are cold paths).
func (w *allocWalker) call(pkg *pkgInfo, call *ast.CallExpr, chain []string) bool {
	info := pkg.info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				w.flag(pkg, call.Pos(), chain, "append may grow its backing array")
			case "make":
				w.flag(pkg, call.Pos(), chain, "make allocates")
			case "new":
				w.flag(pkg, call.Pos(), chain, "new allocates")
			case "panic":
				return false // diagnostics on the way down are cold by definition
			}
			return true
		}
	}
	// Conversions: T(x) where T is a type.
	if len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			w.conversion(pkg, call, tv.Type, chain)
			return true
		}
	}
	f := calleeFunc(info, call)
	if f == nil {
		return true // indirect call: invisible to the static walk
	}
	w.boxing(pkg, call, f, chain)
	w.walkFunc(f, chain)
	return true
}

// conversion flags allocating type conversions: string<->[]byte/[]rune
// and boxing a concrete non-pointer value into an interface.
func (w *allocWalker) conversion(pkg *pkgInfo, call *ast.CallExpr, to types.Type, chain []string) {
	arg := call.Args[0]
	tv, ok := pkg.info.Types[arg]
	if !ok {
		return
	}
	from := tv.Type
	switch {
	case isStringType(to) && isByteOrRuneSlice(from),
		isByteOrRuneSlice(to) && isStringType(from):
		w.flag(pkg, call.Pos(), chain, "string/slice conversion copies and allocates")
	case types.IsInterface(to.Underlying()) && boxes(from, tv):
		w.flag(pkg, call.Pos(), chain, "converting "+from.String()+" to an interface allocates (boxing)")
	}
}

// boxing flags call arguments whose assignment to an interface-typed
// parameter heap-allocates: a concrete, non-pointer value. Pointers,
// interfaces, channels and nil ride in the interface word for free.
func (w *allocWalker) boxing(pkg *pkgInfo, call *ast.CallExpr, f *types.Func, chain []string) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue // f(xs...) spread: no per-element boxing here
			}
			pt = st.Elem()
		default:
			continue
		}
		if _, generic := pt.(*types.TypeParam); generic || pt == nil || !types.IsInterface(pt.Underlying()) {
			continue // a type parameter's constraint is an interface, but an instantiation passes the value as is
		}
		tv, ok := pkg.info.Types[arg]
		if !ok || !boxes(tv.Type, tv) {
			continue
		}
		w.flag(pkg, arg.Pos(), chain, "passing "+tv.Type.String()+" to an interface parameter of "+
			funcKey(f)+" allocates (boxing)")
	}
}

// boxes reports whether storing a value of type t into an interface
// heap-allocates: t is concrete, not a pointer shape, and not untyped
// nil.
func boxes(t types.Type, tv types.TypeAndValue) bool {
	if t == nil || tv.IsNil() {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		_ = u
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	}
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
