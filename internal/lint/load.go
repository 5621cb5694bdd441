// Package lint implements oblint, a model-invariant static analyzer for
// this repository. The paper's guarantees hold only under a strict model
// discipline — algorithms may depend on the order and ports of pulse
// arrivals, never on content or timing (Section 2) — and oblint enforces
// that discipline mechanically instead of socially. It is built on the
// standard library only (go/parser, go/ast, go/types), so it runs offline
// with no external dependencies.
//
// Six families of checks are implemented:
//
//   - content-obliviousness (oblivious-import, oblivious-chan,
//     oblivious-payload, oblivious-taint): the oblivious packages may not
//     import content-carrying packages, may not declare non-pulse
//     channels, pulse handlers may not inspect a message payload, and no
//     branch anywhere reachable from an oblivious package may depend on a
//     value derived from one — the taint analysis follows payloads across
//     function and package boundaries.
//   - determinism (det-time, det-globalrand, det-maprange): no wall-clock
//     calls outside the live runtime and cmd/, no global math/rand
//     functions anywhere (randomness must be injected and seeded), and no
//     map iteration in replay-deterministic packages.
//   - layering (layer-dag): the intended import DAG is encoded as data;
//     unregistered packages and back-edges fail.
//   - concurrency hygiene (atomic-mixed, atomic-copy): a field accessed
//     through sync/atomic anywhere must be accessed that way everywhere,
//     and atomic wrapper values must not be copied.
//   - handler discipline (handler-block): no blocking operation reachable
//     from an Init/OnMsg handler over the module-wide call graph.
//   - state integrity (state-snapshot, state-restore, state-skew): every
//     field a machine's handlers write must round-trip through its
//     SnapshotTo/Restore encoding, which is also its memo key; see
//     statecoverage.go.
//
// The interprocedural checks resolve call chains through Runner.Resolve,
// a callback into the Loader, so the module-wide graph shares one set of
// go/types objects with the analyzed packages.
//
// A finding can be suppressed with a directive comment on the same line or
// the line above: //oblint:allow <check> [<check>...]. Suppressed findings
// are still reported (marked suppressed) so CI can track them.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked module package.
type Package struct {
	Path  string // import path, e.g. "coleader/internal/core"
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects soft type-checking errors. Checks still run on a
	// package with type errors; the driver surfaces them separately.
	TypeErrors []error
}

// Loader loads packages of one module from source, resolving module-
// internal imports against the module root and everything else through the
// standard library's source importer. It needs no network, no GOPATH
// layout, and no precompiled export data.
type Loader struct {
	Fset   *token.FileSet
	Module string // module path from go.mod
	Root   string // module root directory

	// ExtraRoots maps an import-path prefix to a directory, letting tests
	// load fixture trees (e.g. "fixt" -> ".../testdata/src/fixt").
	ExtraRoots map[string]string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	deps    map[string]*types.Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Module:  module,
		Root:    root,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		deps:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func FindModule(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// dirFor maps an import path to a source directory, or "" if the path is
// not handled by this loader (i.e. stdlib).
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest))
	}
	for prefix, dir := range l.ExtraRoots {
		if path == prefix {
			return dir
		}
		if rest, ok := strings.CutPrefix(path, prefix+"/"); ok {
			return filepath.Join(dir, filepath.FromSlash(rest))
		}
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if d := l.dirFor(path); d != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	p, err := l.std.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	l.deps[path] = p
	return p, nil
}

// Load parses and type-checks the package at the given import path
// (module-internal or registered via ExtraRoots), memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	// Memoization happens only after type-checking completes, so a cyclic
	// import would otherwise recurse forever through ImportFrom.
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %s is not inside module %s", path, l.Module)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	p := &Package{Path: path, Dir: dir}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if tpkg == nil {
		return nil, err
	}
	p.Files = files
	p.Types = tpkg
	p.Info = info
	l.pkgs[path] = p
	return p, nil
}

// pkgDir is one module package directory discovered by modulePackageDirs.
type pkgDir struct {
	Path string // import path
	Dir  string
}

// modulePackageDirs walks the module tree rooted at root and returns every
// directory holding non-test Go files, skipping testdata, vendor, and
// dot/underscore directories. Results are sorted by import path. It is the
// single source of truth for "the module's packages", shared by LoadAll
// and the analysis cache so their views can never diverge.
func modulePackageDirs(root, module string) ([]pkgDir, error) {
	var dirs []pkgDir
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				ip := module
				if rel != "." {
					ip = module + "/" + filepath.ToSlash(rel)
				}
				dirs = append(dirs, pkgDir{Path: ip, Dir: p})
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Path < dirs[j].Path })
	return dirs, nil
}

// LoadAll walks the module tree and loads every package, skipping
// testdata, vendor, and dot-directories. Packages are returned sorted by
// import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := modulePackageDirs(l.Root, l.Module)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.Load(d.Path)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.Path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
