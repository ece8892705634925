package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package. Type errors do
// not abort a load: they are collected so AST-only analyzers still run
// over partially-checked code (fixture packages deliberately import
// unresolvable paths, for example).
type Package struct {
	// Path is the import path the package was loaded as, e.g.
	// "routergeo/internal/core".
	Path string
	// Dir is the directory the sources came from.
	Dir string
	// Files holds the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info carry the go/types results. Types is non-nil even
	// when TypeErrors is not empty.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects every error the type checker reported.
	TypeErrors []error
}

// Loader parses and type-checks packages of one module using only the
// standard library: go/parser for syntax, go/types for semantics, and
// go/importer for the standard library's export data. Module-internal
// imports are type-checked from source, recursively and memoized.
type Loader struct {
	// Fset is shared by every package the loader touches, so positions
	// from different packages compare and print consistently.
	Fset *token.FileSet
	// Module is the module path from go.mod (e.g. "routergeo").
	Module string
	// Root is the absolute module root directory.
	Root string

	std     types.Importer
	pkgs    map[string]*Package
	stubs   map[string]*types.Package
	loading map[string]bool
}

// NewLoader builds a loader rooted at the module containing dir: it
// walks up from dir until it finds a go.mod and reads the module path
// from its first "module" line.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, module, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:    token.NewFileSet(),
		Module:  module,
		Root:    root,
		std:     importer.Default(),
		pkgs:    map[string]*Package{},
		stubs:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// findModule walks up from dir looking for go.mod.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Load resolves patterns relative to the module root — "./internal/..."
// walks recursively, "./cmd/geolint" names one package — and returns the
// matched packages sorted by import path. Directories without buildable
// Go files (and testdata trees) are skipped, matching go tooling.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec, pat = true, rest
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" || pat == "." {
			pat = "."
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !rec {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || (p != base && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				dirs[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walk %s: %w", pat, err)
		}
	}
	paths := make([]string, 0, len(dirs))
	for d := range dirs {
		rel, err := filepath.Rel(l.Root, d)
		if err != nil {
			return nil, err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, ip := range paths {
		pkg, err := l.loadPath(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// internalPath reports whether ip belongs to the loader's module.
func (l *Loader) internalPath(ip string) bool {
	return ip == l.Module || strings.HasPrefix(ip, l.Module+"/")
}

// loadPath loads a module-internal import path from source, memoized.
func (l *Loader) loadPath(ip string) (*Package, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	if l.loading[ip] {
		return nil, fmt.Errorf("lint: import cycle through %s", ip)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	return l.check(ip, dir)
}

// check parses dir and type-checks it as import path ip.
func (l *Loader) check(ip, dir string) (*Package, error) {
	l.loading[ip] = true
	defer delete(l.loading, ip)

	// go/build applies build constraints and GOOS/GOARCH file filtering,
	// so platform-gated siblings (cpu_unix.go vs cpu_other.go) don't
	// collide in one type-check.
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}

	pkg := &Package{Path: ip, Dir: dir, Files: files}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:    importerFunc(l.importPkg),
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if incomplete) package even on errors; the
	// analyzers tolerate missing type info rather than giving up.
	pkg.Types, _ = conf.Check(ip, l.Fset, files, pkg.Info)
	l.pkgs[ip] = pkg
	return pkg, nil
}

// importPkg resolves one import for the type checker: module-internal
// paths recurse into loadPath, everything else goes to the compiled
// standard-library importer. Unresolvable paths degrade to an empty
// placeholder package so analysis of the importer's AST can continue
// (the stdlibonly analyzer reports them; the type checker must not die).
func (l *Loader) importPkg(ip string) (*types.Package, error) {
	if ip == "unsafe" {
		return types.Unsafe, nil
	}
	if l.internalPath(ip) {
		p, err := l.loadPath(ip)
		if err != nil {
			return l.stub(ip), nil
		}
		return p.Types, nil
	}
	if p, err := l.std.Import(ip); err == nil {
		return p, nil
	}
	return l.stub(ip), nil
}

// stub returns a memoized empty placeholder for an unresolvable import.
func (l *Loader) stub(ip string) *types.Package {
	if p, ok := l.stubs[ip]; ok {
		return p
	}
	name := ip
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(ip, name)
	p.MarkComplete()
	l.stubs[ip] = p
	return p
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
