package lint

// conc-* family: concurrency-integrity checks for the goroutine-bearing
// runtimes (internal/live, internal/fault, the experiment pools), built on
// the devirtualized call graph (callgraph.go). Like the state-* family,
// no configuration gates them: the properties are structural, so a new
// package is covered the day it is written.
//
//   - conc-goroutine-leak: the body a `go` statement spawns — the literal,
//     or every devirtualized candidate of the called expression — must not
//     contain an unconditional `for` loop with neither a channel gate
//     (select, channel receive, range over a channel: the operations that
//     park the goroutine and give a close() a way to end it) nor a
//     lexical exit (return, break, goto, panic). Such a loop spins until
//     process exit and the goroutine can never be shut down.
//   - conc-lock-order: two mutexes must be acquired in one consistent
//     order everywhere in the package. Acquisition pairs are collected per
//     function with calls followed — including devirtualized ones — while
//     locks are held; a pair locked in both orders is a deadlock waiting
//     for the right interleaving, and both witness sites are reported.
//
// Scope choices that keep the clean tree clean without suppressions:
// goroutine-leak inspects only the immediately spawned body (not its
// transitive callees); lock-order skips `go` and `defer` statements and
// uninvoked function literals (a deferred unlock keeps the lock held for
// pairing purposes, which is the conservative direction). Both follow
// syntax, not every dataflow — the usual lint trade.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// --- conc-goroutine-leak ---------------------------------------------------

// spawnee is one body a `go` statement may run: a literal spawned in
// place, or a devirtualized candidate of the called expression.
type spawnee struct {
	pkg  *Package
	body *ast.BlockStmt
	name string // "" for literals
}

func checkConcLeak(r *Runner, p *Package, report func(token.Pos, string, string)) {
	g := r.module()
	g.add(p)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			for _, s := range spawnedBodies(g, p, gs) {
				loop := leakyLoop(s.pkg, s.body)
				if loop == nil {
					continue
				}
				where := "an unconditional loop"
				if s.name != "" {
					where = fmt.Sprintf("an unconditional loop in %s", s.name)
				}
				report(gs.Go, CheckConcLeak,
					fmt.Sprintf("goroutine spawned here runs %s with no channel gate (select, receive, range over a channel) and no lexical exit (return, break, goto, panic); nothing can ever stop it (goroutine leak)", where))
				break // one finding per go statement
			}
			return true
		})
	}
}

// spawnedBodies resolves the body (or bodies) a go statement runs.
func spawnedBodies(g *moduleGraph, p *Package, gs *ast.GoStmt) []spawnee {
	if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return []spawnee{{pkg: p, body: lit.Body}}
	}
	cands, _ := g.resolveCall(p, gs.Call)
	var out []spawnee
	for _, c := range cands {
		switch {
		case c.fn != nil:
			if d := g.declOf(c.fn); d != nil {
				out = append(out, spawnee{pkg: d.pkg, body: d.decl.Body, name: c.fn.FullName()})
			}
		case c.lit != nil:
			out = append(out, spawnee{pkg: c.pkg, body: c.lit.Body, name: "a bound closure"})
		}
	}
	return out
}

// leakyLoop returns the first unconditional for loop in body (nested
// literals excluded: they are not this goroutine) that has neither a
// channel gate nor a lexical exit, or nil.
func leakyLoop(p *Package, body *ast.BlockStmt) *ast.ForStmt {
	var bad *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond != nil {
			return true
		}
		if !loopGated(p, fs.Body) && !loopExits(fs.Body) {
			bad = fs
			return false
		}
		return true
	})
	return bad
}

// loopGated reports whether the loop body contains a channel gate: a
// select, a channel receive, or a range over a channel (nested literals
// excluded).
func loopGated(p *Package, body *ast.BlockStmt) bool {
	gated := false
	ast.Inspect(body, func(n ast.Node) bool {
		if gated {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			gated = true
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				gated = true
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					gated = true
					return false
				}
			}
		}
		return true
	})
	return gated
}

// loopExits reports whether the loop body contains a lexical exit from
// the loop: a return, a goto, a panic, a labeled break, or an unlabeled
// break that binds to this loop (not to a nested for/range/switch/select).
func loopExits(body *ast.BlockStmt) bool {
	found := false
	walkParents(body, func(n ast.Node, parents []ast.Node) {
		if found {
			return
		}
		for _, pa := range parents {
			if _, ok := pa.(*ast.FuncLit); ok {
				return // a nested literal's exits are not this loop's
			}
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			switch {
			case n.Tok == token.GOTO:
				found = true
			case n.Tok != token.BREAK:
			case n.Label != nil:
				found = true // labeled break targets this loop or an outer one
			default:
				for _, pa := range parents {
					switch pa.(type) {
					case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
						*ast.TypeSwitchStmt, *ast.SelectStmt:
						return // binds to the nested statement
					}
				}
				found = true
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
	})
	return found
}

// --- conc-lock-order -------------------------------------------------------

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

func checkConcLockOrder(r *Runner, p *Package, report func(token.Pos, string, string)) {
	g := r.module()
	g.add(p)

	type lockPair struct{ held, taken *types.Var }
	edges := make(map[lockPair]token.Pos) // first witness of each order

	var walkBody func(wp *Package, body ast.Node, held *[]*types.Var, visiting map[ast.Node]bool)
	walkBody = func(wp *Package, body ast.Node, held *[]*types.Var, visiting map[ast.Node]bool) {
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			if n == nil {
				return
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				// Literals run when invoked (resolved at their call sites);
				// a spawned goroutine holds nothing of ours; a deferred
				// unlock keeps the lock held for pairing purposes.
				return
			case *ast.CallExpr:
				if mu, kind := lockCall(wp, n); kind != lockNone {
					if mu == nil {
						return // untrackable mutex expression
					}
					switch kind {
					case lockAcquire:
						for _, h := range *held {
							if h == mu {
								continue
							}
							k := lockPair{h, mu}
							if _, ok := edges[k]; !ok {
								edges[k] = n.Pos()
							}
						}
						*held = append(*held, mu)
					case lockRelease:
						for i := len(*held) - 1; i >= 0; i-- {
							if (*held)[i] == mu {
								*held = append((*held)[:i], (*held)[i+1:]...)
								break
							}
						}
					}
					return
				}
				if len(*held) > 0 {
					// Follow calls made while locks are held — static and
					// devirtualized alike — so a lock taken inside a helper
					// still pairs with the caller's.
					cands, _ := g.resolveCall(wp, n)
					for _, c := range cands {
						switch {
						case c.fn != nil:
							if d := g.declOf(c.fn); d != nil && !visiting[d.decl] {
								visiting[d.decl] = true
								walkBody(d.pkg, d.decl.Body, held, visiting)
							}
						case c.lit != nil:
							if !visiting[c.lit] {
								visiting[c.lit] = true
								walkBody(c.pkg, c.lit.Body, held, visiting)
							}
						}
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

	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := []*types.Var{}
			walkBody(p, fd.Body, &held, map[ast.Node]bool{fd.Body: true})
		}
	}

	// Report each direction of every inverted pair at its first witness.
	// Sorting by witness position makes the iteration deterministic; the
	// finding set itself is order-independent.
	pairs := make([]lockPair, 0, len(edges))
	for k := range edges {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool { return edges[pairs[i]] < edges[pairs[j]] })
	for _, k := range pairs {
		if _, inverted := edges[lockPair{k.taken, k.held}]; inverted {
			report(edges[k], CheckConcLockOrder,
				fmt.Sprintf("mutex %s acquired while %s is held, but the opposite order also occurs in this package (a lock-order inversion deadlocks under the right interleaving)",
					k.taken.Name(), k.held.Name()))
		}
	}
}

// lockCall classifies a call as a sync.Mutex/RWMutex acquire or release
// and resolves the mutex operand to its variable or field object.
func lockCall(p *Package, call *ast.CallExpr) (*types.Var, lockKind) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, lockNone
	}
	fn := calleeFunc(p, call.Fun)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, lockNone
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, lockNone
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return nil, lockNone
	}
	var kind lockKind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = lockAcquire // RLock pairs like Lock: a waiting writer bridges the deadlock
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return nil, lockNone
	}
	return mutexObj(p, sel.X), kind
}

// mutexObj resolves the expression a lock method is called on to a stable
// identity: the variable or struct field object holding the mutex.
func mutexObj(p *Package, e ast.Expr) *types.Var {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		v, _ := objOf(p, e).(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			v, _ := s.Obj().(*types.Var)
			return v
		}
		v, _ := p.Info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return mutexObj(p, e.X)
		}
	}
	return nil
}
