package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// pkgInfo is one parsed and type-checked package.
type pkgInfo struct {
	path  string // import path
	dir   string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader parses and type-checks packages of the enclosing module, pulling
// in module-internal dependencies recursively and delegating everything
// else to the standard library's source importer. It needs no toolchain
// invocation and no third-party code.
type loader struct {
	fset    *token.FileSet
	module  string // module path from go.mod
	root    string // module root directory
	std     types.ImporterFrom
	pkgs    map[string]*pkgInfo // by import path; nil entry = load in progress
	loading map[string]bool

	// idx memoizes funcIndex across check invocations; idxGen records how
	// many packages were loaded when it was built, so a lazy load of a new
	// dependency rebuilds it.
	idx    map[*types.Func]funcRef
	idxGen int
}

// funcIndex maps every declared function of every loaded module package
// to its AST, so reachability analyses can cross package boundaries. The
// index is rebuilt whenever a new package has been loaded since the last
// call.
func (l *loader) funcIndex() map[*types.Func]funcRef {
	if l.idx != nil && l.idxGen == len(l.pkgs) {
		return l.idx
	}
	idx := make(map[*types.Func]funcRef)
	for _, pkg := range l.pkgs {
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.info.Defs[fd.Name].(*types.Func); ok {
					idx[obj] = funcRef{pkg: pkg, decl: fd}
				}
			}
		}
	}
	l.idx, l.idxGen = idx, len(l.pkgs)
	return idx
}

func newLoader(root string) (*loader, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer honors build.Default; without cgo the few
	// cgo-optional stdlib packages (net) fall back to their pure-Go
	// variants, which is all type checking needs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not support ImportFrom")
	}
	return &loader{
		fset:    fset,
		module:  module,
		root:    root,
		std:     std,
		pkgs:    make(map[string]*pkgInfo),
		loading: make(map[string]bool),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// importPathFor maps a directory inside the module to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path back to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.module+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded from source here; everything else (the standard library) goes to
// the source importer.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// loadDir loads the package in dir (nil if the directory holds no
// non-test Go files).
func (l *loader) loadDir(dir string) (*pkgInfo, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if names, err := goFiles(dir); err != nil || len(names) == 0 {
		return nil, err
	}
	return l.load(path)
}

// goFiles lists the non-test Go files of the package in dir that the go
// command would build here: build.Default decides, so build constraints and
// GOOS/GOARCH file suffixes apply. A directory with no such file lists none.
func goFiles(dir string) ([]string, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	var none *build.NoGoError
	if errors.As(err, &none) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return bp.GoFiles, nil
}

func (l *loader) load(path string) (*pkgInfo, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := goFiles(dir) // sorted: parse order is deterministic
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	pkg := &pkgInfo{path: path, dir: dir, fset: l.fset, files: files, types: tpkg, info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// pos resolves a token.Pos against the package's file set.
func (p *pkgInfo) pos(at token.Pos) token.Position { return p.fset.Position(at) }
