package lint

// handler-block: the runtimes are event-driven — internal/sim invokes a
// machine's Init/OnMsg inline on the simulation loop, and internal/live
// invokes them on the node's own goroutine, which is also the goroutine
// that drains the node's inbox. A handler that blocks (a channel
// operation, a mutex acquisition, a WaitGroup wait) therefore stalls the
// very loop that would unblock it: in sim it freezes the whole run, in
// live it deadlocks the node. The model's asynchrony lives in the network,
// never in the handler.
//
// The check walks the module-wide static call graph (callgraph.go) from
// every handler root and flags each blocking operation reachable along it,
// including operations inside helpers declared in other packages:
//
//   - channel send and receive (any channel: even a buffered operation
//     blocks when the buffer is full or empty, so handlers get none);
//   - range over a channel and select without a default clause;
//   - sync.Mutex.Lock, sync.RWMutex.Lock/RLock, sync.WaitGroup.Wait,
//     sync.Cond.Wait.
//
// A root is an Init or OnMsg method of a Config.HandlerPkgs package, or of
// any machine-shaped type — one whose OnMsg takes an instantiation of
// Config.EmitterType — so a new machine package is covered the moment it
// exists, registered or not.
//
// Operations inside a `go` statement's function literal are exempt — the
// spawned goroutine may block, the handler does not — but the statement's
// argument expressions are still evaluated synchronously and stay checked.
// Calls through interfaces and func values devirtualize against the
// module-wide type-set index (callgraph.go): every live implementation of
// the interface method, and every function or closure the module binds to
// the called value, is followed. Only a site with no module candidate ends
// the chain — the residual soundness trade, counted in Result.Devirt.
//
// One interface is deliberately opaque: Config.EmitterType, the model's
// emit primitive. Each runtime's emitter implementation is that runtime's
// own handler-safety obligation — sim's emitter enqueues inline, live's
// bumps the receiver's atomic queue count and posts its wake token with a
// non-blocking select — so devirtualizing through it would
// attribute one runtime's internals to every machine's handlers. The
// emitter implementations stay checked in their own right wherever they
// are reachable from a handler root by a concrete path.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// blockingOp is one blocking operation site found in a function body.
type blockingOp struct {
	pos  token.Pos
	desc string
}

// fnFacts records, per declared function/method (or closure literal
// reached through a devirtualized call), its direct blocking operations
// and its direct callees — static and devirtualized alike.
type fnFacts struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	ops     []blockingOp
	callees []calleeRef
}

// factsOf computes (memoized) the blocking facts of a function anywhere in
// the module, or nil when its body is out of reach.
func (g *moduleGraph) factsOf(fn *types.Func) *fnFacts {
	if ff, ok := g.facts[fn]; ok {
		return ff
	}
	d := g.declOf(fn)
	if d == nil {
		g.facts[fn] = nil
		return nil
	}
	ff := &fnFacts{decl: d.decl, obj: fn}
	g.facts[fn] = ff // pre-memo so recursive call chains terminate
	collectBlocking(g, d.pkg, d.decl.Body, ff)
	return ff
}

// litFactsOf is factsOf for a closure literal reached through a
// devirtualized func-value call; p is the package whose Info covers it.
func (g *moduleGraph) litFactsOf(lit *ast.FuncLit, p *Package) *fnFacts {
	if ff, ok := g.litFacts[lit]; ok {
		return ff
	}
	if p == nil {
		g.litFacts[lit] = nil
		return nil
	}
	ff := &fnFacts{}
	g.litFacts[lit] = ff // pre-memo so recursive chains terminate
	collectBlocking(g, p, lit.Body, ff)
	return ff
}

func checkHandlerBlock(r *Runner, p *Package, report func(token.Pos, string, string)) {
	g := r.module()
	g.add(p)

	handlerPkg := matchPath(p.Path, r.Config.HandlerPkgs)
	var roots []*types.Func
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if fd.Name.Name != "Init" && fd.Name.Name != "OnMsg" {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if handlerPkg || machineShaped(r, obj) {
				roots = append(roots, obj)
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })

	// Reachability from each handler root over the module-wide call graph;
	// an op is reported once per analyzed package, attributed to the first
	// (alphabetical) handler that reaches it so output stays deterministic.
	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		seenFn := make(map[*types.Func]bool)
		seenLit := make(map[*ast.FuncLit]bool)
		var visit func(c calleeRef)
		visit = func(c calleeRef) {
			var ff *fnFacts
			switch {
			case c.fn != nil:
				if seenFn[c.fn] {
					return
				}
				seenFn[c.fn] = true
				ff = g.factsOf(c.fn)
			case c.lit != nil:
				if seenLit[c.lit] {
					return
				}
				seenLit[c.lit] = true
				ff = g.litFactsOf(c.lit, c.pkg)
			}
			if ff == nil {
				return
			}
			for _, op := range ff.ops {
				if reported[op.pos] {
					continue
				}
				reported[op.pos] = true
				report(op.pos, CheckHandlerBlock,
					fmt.Sprintf("blocking %s reachable from event handler %s (handlers run inline on the runtime's event loop and must never block)",
						op.desc, root.FullName()))
			}
			for _, cc := range ff.callees {
				visit(cc)
			}
		}
		visit(calleeRef{fn: root})
	}
}

// machineShaped reports whether fn is a handler method of a type whose
// OnMsg takes an instantiation of Config.EmitterType — the signature every
// node.Machine implementation shares.
func machineShaped(r *Runner, fn *types.Func) bool {
	want := r.Config.EmitterType
	if want == "" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	onMsg := lookupMethod(sig.Recv().Type(), "OnMsg")
	if onMsg == nil {
		return false
	}
	msig, ok := onMsg.Type().(*types.Signature)
	if !ok || msig.Params().Len() == 0 {
		return false
	}
	last := msig.Params().At(msig.Params().Len() - 1).Type()
	return namedPath(last) == want
}

// lookupMethod finds a method in t's method set (through embedding), or nil.
func lookupMethod(t types.Type, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// namedPath renders a (possibly aliased or instantiated) named type as
// "import/path.Name", or "" for unnamed types. Instantiations report their
// generic origin, so node.Emitter[pulse.Pulse] matches
// "coleader/internal/node.Emitter".
func namedPath(t types.Type) string {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// collectBlocking walks a function body recording direct blocking
// operations and direct callees — concrete callees directly, dynamic sites
// (interface methods, func values) through the devirtualization index.
// Function literals are treated as part of the enclosing body (they may
// run synchronously) except when they are the function of a `go`
// statement.
func collectBlocking(g *moduleGraph, p *Package, body ast.Node, ff *fnFacts) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned callee may block freely; its argument
			// expressions are evaluated on the handler's goroutine.
			for _, arg := range n.Call.Args {
				walk(arg)
			}
			if _, isLit := unparen(n.Call.Fun).(*ast.FuncLit); !isLit {
				walk(n.Call.Fun)
			}
			return
		case *ast.SendStmt:
			ff.ops = append(ff.ops, blockingOp{n.Arrow, "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ff.ops = append(ff.ops, blockingOp{n.OpPos, "channel receive"})
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ff.ops = append(ff.ops, blockingOp{n.For, "range over channel"})
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				ff.ops = append(ff.ops, blockingOp{n.Select, "select without default"})
			}
			// Still walk the bodies for nested ops; the comm clauses'
			// channel operations themselves are subsumed by the select.
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						walk(s)
					}
				}
			}
			return
		case *ast.CallExpr:
			if fn := calleeFunc(p, n.Fun); fn != nil {
				if desc := blockingSyncCall(fn); desc != "" {
					ff.ops = append(ff.ops, blockingOp{n.Pos(), desc})
				} else if fn.Pkg() != nil {
					// Resolution to a body happens lazily in factsOf; an
					// unresolvable callee (stdlib) just ends the chain.
					ff.callees = append(ff.callees, calleeRef{fn: fn})
				}
			} else if !emitterCall(g.r, p, n) {
				// Dynamic site: follow every devirtualized candidate. An
				// unresolvable site has none and ends the chain there.
				if cands, kind := g.resolveCall(p, n); kind != siteStatic {
					ff.callees = append(ff.callees, cands...)
				}
			}
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c)
			return false
		})
	}
	walk(body)
}

// emitterCall reports whether a call is a method call through the
// configured emitter interface — the emit primitive handler-block treats
// as opaque (see the file comment).
func emitterCall(r *Runner, p *Package, call *ast.CallExpr) bool {
	want := r.Config.EmitterType
	if want == "" {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok {
		return false
	}
	if _, isIface := s.Recv().Underlying().(*types.Interface); !isIface {
		return false
	}
	return namedPath(s.Recv()) == want
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's function expression to the concrete
// function or method object, or nil (interface methods, func values).
func calleeFunc(p *Package, fun ast.Expr) *types.Func {
	switch fun := unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[fun]; ok {
			if fn, ok := s.Obj().(*types.Func); ok {
				// Methods of interface types cannot be resolved to a body.
				if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
					return nil
				}
				return fn
			}
			return nil
		}
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// blockingSyncCall names the blocking sync primitive a method call is, or
// "" if the callee is not one.
func blockingSyncCall(fn *types.Func) string {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	switch named.Obj().Name() + "." + fn.Name() {
	case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock",
		"WaitGroup.Wait", "Cond.Wait":
		return "sync." + named.Obj().Name() + "." + fn.Name()
	}
	return ""
}
