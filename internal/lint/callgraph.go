package lint

// Whole-module interprocedural core. Checks that follow calls (handler-
// block, oblivious-taint, the state-* family) used to stop at the package
// boundary; moduleGraph lets them resolve a *types.Func to its declaration
// anywhere in the module and keep walking.
//
// Resolution is lazy and memoized: a package is indexed the first time a
// check (or a call chain) reaches it, through Runner.Resolve — normally the
// Loader that type-checked the analyzed package, so every *types.Func
// object is shared and map lookups are pointer-identity. Paths Resolve
// cannot handle (the stdlib, vendored trees) are negative-cached and simply
// end the chain, which is the usual soundness trade of a static call graph.
//
// Cache soundness (cache.go): Go forbids import cycles, so every function a
// package's analysis can reach through *static* calls lives in the
// package's transitive import closure — the set of sources pkgKey hashes.
// Devirtualization (below) widens the reachable set to the whole module:
// an interface method call can resolve to an implementation declared in a
// package the caller never imports. The v3 cache therefore folds a
// module-wide type-set digest into its salt, so any edit anywhere re-keys
// every verdict (see cacheSalt).
//
// # Devirtualization
//
// Calls through interfaces and func values used to end every chain — the
// soundness gap PR 6 documented. The typeIndex closes it with a module-
// wide type-set index:
//
//   - interface method calls resolve by CHA narrowed RTA-style: the
//     candidates are the module types that implement the interface AND are
//     live — instantiated somewhere in the module (composite literal,
//     new(T), declared variable, conversion, type assertion), with
//     liveness propagated into the field/element types of live types so a
//     value reachable through a live struct counts as constructible;
//   - func-value calls resolve to the named functions, methods, and
//     closures assigned to the called object anywhere in the module —
//     tracked through the same object-sharing trick the taint pass's
//     propagateCall uses (assignments, var initializers, keyed composite
//     literals, and call arguments all bind sources to the shared
//     types.Object of the destination).
//
// Every dynamic call site classifies as resolved (exactly one candidate),
// over-approximated (several candidates, all followed), or unresolvable
// (no candidate in the module — e.g. a stdlib interface, a func parameter
// nothing ever binds; the chain ends there, the residual soundness trade).
// Per-package counts of the three outcomes are surfaced through
// Result.Devirt so -json can report them and the committed
// .oblint-baseline.json pins them.
//
// The index is built once per Runner from Runner.List (every module
// package) or, when List is unset (fixture harnesses), from the packages
// already added to the graph.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// fnDecl is a declared function or method together with the package whose
// type info covers its body.
type fnDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// moduleGraph is the lazily built module-wide function index shared by all
// interprocedural checks of one Runner.
type moduleGraph struct {
	r *Runner

	// pkgs memoizes package resolution; nil marks a path Resolve cannot
	// load (stdlib, missing), so chains end there without retrying.
	pkgs map[string]*Package

	// decls indexes, per resolved package, every function/method with a
	// body by its *types.Func object.
	decls map[string]map[*types.Func]*fnDecl

	// facts memoizes per-function blocking facts (handler-block); litFacts
	// is its sibling for closures reached through devirtualized func-value
	// calls.
	facts    map[*types.Func]*fnFacts
	litFacts map[*ast.FuncLit]*fnFacts

	// state memoizes per-package state-coverage findings (statecoverage.go),
	// computed once and filtered per check name.
	state map[string][]stateFinding

	// index is the module-wide devirtualization index, built lazily on the
	// first dynamic call any check needs resolved.
	index *typeIndex

	// devirt memoizes per-package dynamic-call-site stats.
	devirt map[string]DevirtStats
}

// module returns the Runner's graph, creating it on first use.
func (r *Runner) module() *moduleGraph {
	if r.graph == nil {
		r.graph = &moduleGraph{
			r:        r,
			pkgs:     make(map[string]*Package),
			decls:    make(map[string]map[*types.Func]*fnDecl),
			facts:    make(map[*types.Func]*fnFacts),
			litFacts: make(map[*ast.FuncLit]*fnFacts),
			state:    make(map[string][]stateFinding),
			devirt:   make(map[string]DevirtStats),
		}
	}
	return r.graph
}

// add indexes an already-loaded package (idempotent). The package under
// analysis is always added directly, so it resolves even when Runner.Resolve
// is unset.
func (g *moduleGraph) add(p *Package) {
	if p == nil {
		return
	}
	if _, ok := g.decls[p.Path]; ok {
		return
	}
	g.pkgs[p.Path] = p
	idx := make(map[*types.Func]*fnDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = &fnDecl{pkg: p, decl: fd}
			}
		}
	}
	g.decls[p.Path] = idx
}

// resolve loads and indexes the package at an import path, or returns nil
// (memoized) when the path is outside the resolver's reach.
func (g *moduleGraph) resolve(path string) *Package {
	if p, ok := g.pkgs[path]; ok {
		return p
	}
	var p *Package
	if g.r.Resolve != nil {
		if rp, err := g.r.Resolve(path); err == nil {
			p = rp
		}
	}
	g.pkgs[path] = p
	g.add(p)
	return p
}

// declOf resolves a function object to its declaration anywhere in the
// module, or nil (stdlib, interface methods, unresolvable packages).
func (g *moduleGraph) declOf(fn *types.Func) *fnDecl {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if _, ok := g.decls[path]; !ok {
		g.resolve(path)
		if _, ok := g.decls[path]; !ok {
			g.decls[path] = nil
		}
	}
	return g.decls[path][fn]
}

// calleeRef is one candidate callee of a call site: a declared function or
// method, or a closure literal (with the package whose Info covers it).
type calleeRef struct {
	fn  *types.Func
	lit *ast.FuncLit
	pkg *Package // set for lit refs
}

// sig returns the candidate's signature, or nil.
func (c calleeRef) sig() *types.Signature {
	if c.fn != nil {
		s, _ := c.fn.Type().(*types.Signature)
		return s
	}
	if c.lit != nil && c.pkg != nil {
		if tv, ok := c.pkg.Info.Types[c.lit]; ok {
			s, _ := tv.Type.(*types.Signature)
			return s
		}
	}
	return nil
}

// siteKind classifies one dynamic call site's resolution outcome.
type siteKind int

const (
	siteStatic       siteKind = iota // concrete callee; not a dynamic site
	siteResolved                     // dynamic, exactly one candidate
	siteOverApprox                   // dynamic, several candidates (all followed)
	siteUnresolvable                 // dynamic, no module candidate: chain ends
)

// typeIndex is the module-wide devirtualization index. All slices are in
// deterministic (package-list, file, position) order so candidate sets —
// and therefore findings and stats — never depend on map iteration.
type typeIndex struct {
	// impls indexes every method with a body by name: the CHA candidate
	// pool an interface call narrows from.
	impls map[string][]*types.Func

	// live marks named types that are constructible: instantiated
	// somewhere in the module, or reachable as a field/element of a live
	// type. Only live types' methods are interface-call candidates (RTA-
	// style narrowing).
	live map[*types.TypeName]bool

	// funcTargets maps a func-typed object (variable, struct field,
	// parameter) to every named function, method, or closure the module
	// binds to it.
	funcTargets map[types.Object][]calleeRef
}

// typeSet returns the module-wide index, building it on first use from
// Runner.List (or from the already-resolved packages when List is unset).
func (g *moduleGraph) typeSet() *typeIndex {
	if g.index != nil {
		return g.index
	}
	idx := &typeIndex{
		impls:       make(map[string][]*types.Func),
		live:        make(map[*types.TypeName]bool),
		funcTargets: make(map[types.Object][]calleeRef),
	}
	g.index = idx // set before scanning: resolve() below must not recurse

	var paths []string
	if g.r.List != nil {
		paths = append(paths, g.r.List()...)
	} else {
		// Without a module enumerator, index the analyzed packages plus
		// their module-internal import closure: a candidate reachable
		// only through dynamic dispatch is never named statically, so
		// waiting for a static reference to load its package would miss
		// it. "Module-internal" is judged by first path segment against
		// the packages already under analysis, which keeps the stdlib
		// out of the walk.
		roots := make(map[string]bool)
		queue := make([]string, 0, len(g.decls))
		for p := range g.decls {
			roots[firstSegment(p)] = true
			queue = append(queue, p)
		}
		sort.Strings(queue)
		seen := make(map[string]bool)
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			if seen[path] {
				continue
			}
			seen[path] = true
			p := g.resolve(path)
			if p == nil {
				continue
			}
			paths = append(paths, path)
			if p.Types == nil {
				continue
			}
			for _, imp := range p.Types.Imports() {
				if roots[firstSegment(imp.Path())] {
					queue = append(queue, imp.Path())
				}
			}
		}
		sort.Strings(paths)
	}
	var scanned []*Package
	for _, path := range paths {
		if p := g.resolve(path); p != nil {
			scanned = append(scanned, p)
		}
	}

	for _, p := range scanned {
		idx.scanMethods(g, p)
	}
	for _, p := range scanned {
		idx.scanLiveness(p)
	}
	idx.propagateLiveness()
	for _, p := range scanned {
		idx.scanFuncTargets(p)
	}
	// Candidate pools sort by full name so devirtualized traversal order
	// is independent of package scan order.
	for name := range idx.impls {
		fns := idx.impls[name]
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	}
	return idx
}

// scanMethods indexes every method declaration with a body.
func (idx *typeIndex) scanMethods(g *moduleGraph, p *Package) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				idx.impls[fn.Name()] = append(idx.impls[fn.Name()], fn)
			}
		}
	}
}

// scanLiveness marks named types the package instantiates: composite
// literals, new(T), declared variables and struct fields with an explicit
// type, conversions, and type assertions all witness a constructed value.
func (idx *typeIndex) scanLiveness(p *Package) {
	markExprType := func(e ast.Expr) {
		if tv, ok := p.Info.Types[e]; ok {
			idx.markLive(tv.Type)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				markExprType(n)
			case *ast.ValueSpec:
				if n.Type != nil {
					markExprType(n.Type)
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					markExprType(n.Type)
				}
			case *ast.CallExpr:
				if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() {
					markExprType(n.Fun) // conversion T(x)
				} else if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" {
					if tv, ok := p.Info.Types[id]; ok && tv.IsBuiltin() && len(n.Args) == 1 {
						markExprType(n.Args[0])
					}
				}
			}
			return true
		})
	}
}

// markLive records t's named base type (alias- and instantiation-
// normalized) as constructible.
func (idx *typeIndex) markLive(t types.Type) {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return
	}
	idx.live[n.Origin().Obj()] = true
}

// propagateLiveness closes the live set under containment: a live struct's
// field types and a live container's element types hold constructed values
// too (the zero value of a live struct contains a zero value of each field
// type). Iterates to a fixed point; the type graph is small and monotone.
func (idx *typeIndex) propagateLiveness() {
	for {
		before := len(idx.live)
		// Snapshot the keys: marking is monotone, so work order never
		// affects the resulting set, only how many rounds it takes.
		tns := make([]*types.TypeName, 0, before)
		for tn := range idx.live {
			tns = append(tns, tn)
		}
		for _, tn := range tns {
			idx.spreadLive(tn.Type(), make(map[types.Type]bool))
		}
		if len(idx.live) == before {
			return
		}
	}
}

// spreadLive marks the named component types contained in t.
func (idx *typeIndex) spreadLive(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		idx.live[u.Origin().Obj()] = true
		idx.spreadLive(u.Underlying(), seen)
	case *types.Pointer:
		idx.spreadLive(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			idx.spreadLive(u.Field(i).Type(), seen)
		}
	case *types.Slice:
		idx.spreadLive(u.Elem(), seen)
	case *types.Array:
		idx.spreadLive(u.Elem(), seen)
	case *types.Map:
		idx.spreadLive(u.Key(), seen)
		idx.spreadLive(u.Elem(), seen)
	case *types.Chan:
		idx.spreadLive(u.Elem(), seen)
	}
}

// scanFuncTargets records every binding of a function value to an object:
// assignments, var initializers, keyed composite literals, and call
// arguments. The destination objects are shared module-wide under one
// Loader, so a call through the object anywhere resolves to these sources.
func (idx *typeIndex) scanFuncTargets(p *Package) {
	bind := func(obj types.Object, src ast.Expr) {
		if obj == nil {
			return
		}
		ref, ok := funcSource(p, src)
		if !ok {
			return
		}
		for _, have := range idx.funcTargets[obj] {
			if have.fn == ref.fn && have.lit == ref.lit {
				return
			}
		}
		idx.funcTargets[obj] = append(idx.funcTargets[obj], ref)
	}
	bindTarget := func(dst, src ast.Expr) {
		switch d := unparen(dst).(type) {
		case *ast.Ident:
			bind(objOf(p, d), src)
		case *ast.SelectorExpr:
			if s, ok := p.Info.Selections[d]; ok && s.Kind() == types.FieldVal {
				bind(s.Obj(), src)
			} else {
				bind(p.Info.Uses[d.Sel], src)
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, r := range n.Rhs {
					if i < len(n.Lhs) {
						bindTarget(n.Lhs[i], r)
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) {
						bind(p.Info.Defs[n.Names[i]], v)
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							bind(p.Info.Uses[key], kv.Value)
						}
					}
				}
			case *ast.CallExpr:
				if tv, ok := p.Info.Types[n.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
					return true
				}
				fn := calleeFunc(p, n.Fun)
				if fn == nil {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				if sig == nil {
					return true
				}
				np := sig.Params().Len()
				for i, arg := range n.Args {
					pi := i
					if pi >= np {
						if !sig.Variadic() {
							break
						}
						pi = np - 1
					}
					bind(sig.Params().At(pi), arg)
				}
			}
			return true
		})
	}
}

// funcSource classifies an expression as a function-value source: a named
// function or method used as a value, or a closure literal.
func funcSource(p *Package, e ast.Expr) (calleeRef, bool) {
	switch e := unparen(e).(type) {
	case *ast.FuncLit:
		return calleeRef{lit: e, pkg: p}, true
	case *ast.Ident:
		if fn, ok := p.Info.Uses[e].(*types.Func); ok {
			return calleeRef{fn: fn}, true
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[e.Sel].(*types.Func); ok {
			return calleeRef{fn: fn}, true
		}
	}
	return calleeRef{}, false
}

// resolveCall resolves a call site to its candidate callees. Static calls
// return the concrete callee with siteStatic. Dynamic sites — interface
// method calls and calls through func-typed values — devirtualize against
// the type-set index and classify as resolved, over-approximated, or
// unresolvable.
func (g *moduleGraph) resolveCall(p *Package, call *ast.CallExpr) ([]calleeRef, siteKind) {
	if tv, ok := p.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return nil, siteStatic // conversions and builtins are not calls here
	}
	if fn := calleeFunc(p, call.Fun); fn != nil {
		return []calleeRef{{fn: fn}}, siteStatic
	}
	fun := unparen(call.Fun)
	if fl, ok := fun.(*ast.FuncLit); ok {
		return []calleeRef{{lit: fl, pkg: p}}, siteStatic
	}

	// Interface method call: CHA over the method name, narrowed to live
	// implementing types.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok {
			if ifn, ok := s.Obj().(*types.Func); ok {
				if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
					return g.ifaceCandidates(ifn, iface)
				}
			}
		}
	}

	// Func-value call: candidates are whatever the module binds to the
	// called object.
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = objOf(p, fun)
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[fun]; ok {
			obj = s.Obj()
		} else {
			obj = p.Info.Uses[fun.Sel]
		}
	}
	if v, ok := obj.(*types.Var); ok {
		if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
			cands := g.typeSet().funcTargets[v]
			return cands, dynKind(len(cands))
		}
	}
	return nil, siteUnresolvable
}

// ifaceCandidates returns the live module implementations of an interface
// method.
func (g *moduleGraph) ifaceCandidates(ifn *types.Func, iface *types.Interface) ([]calleeRef, siteKind) {
	idx := g.typeSet()
	var out []calleeRef
	for _, impl := range idx.impls[ifn.Name()] {
		sig, _ := impl.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		recv := types.Unalias(sig.Recv().Type())
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = types.Unalias(ptr.Elem())
		}
		named, ok := recv.(*types.Named)
		if !ok || !idx.live[named.Origin().Obj()] {
			continue
		}
		// Implements through either the value or pointer method set.
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		out = append(out, calleeRef{fn: impl})
	}
	return out, dynKind(len(out))
}

func dynKind(n int) siteKind {
	switch {
	case n == 0:
		return siteUnresolvable
	case n == 1:
		return siteResolved
	default:
		return siteOverApprox
	}
}

// devirtStats computes (memoized) the dynamic-call-site resolution stats
// for one package: every interface-method or func-value call site in its
// bodies, classified against the module-wide index. The quantity depends
// only on the package's syntax and the type-set index, never on which
// check reached the site first, so cached entries replay it exactly.
func (g *moduleGraph) devirtStats(p *Package) DevirtStats {
	if s, ok := g.devirt[p.Path]; ok {
		return s
	}
	g.add(p)
	var s DevirtStats
	seen := make(map[token.Pos]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || seen[call.Lparen] {
				return true
			}
			seen[call.Lparen] = true
			switch _, kind := g.resolveCall(p, call); kind {
			case siteResolved:
				s.ResolvedSites++
			case siteOverApprox:
				s.OverApproxSites++
			case siteUnresolvable:
				s.UnresolvableSites++
			}
			return true
		})
	}
	g.devirt[p.Path] = s
	return s
}

// firstSegment returns an import path's leading element, the coarse
// module-membership test typeSet uses when no enumerator is wired.
func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}
