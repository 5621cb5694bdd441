package lint

// state-* family: a field-parity prover for machine state encodings. The
// exhaustive explorer (internal/check) is sound only if every mutable
// field of every machine round-trips through SnapshotTo/Restore
// (node.Undoable), which back both the undo-DFS and the visited-state
// memo (the snapshot is the memo key). A handler-written field SnapshotTo
// omits is resurrected stale on backtrack and merges distinct global
// states in the memo (state-snapshot); one Restore omits leaks across
// branches (state-restore); one Restore writes but SnapshotTo never
// encodes is layout skew — Restore reads bytes that are not there
// (state-skew).
//
// No configuration gates the family: any struct type with the method
// shapes is checked wherever it lives, so a future machine package is
// covered the day it is written. Per type, the analysis computes
//
//	writes(T)  = fields written by Init/OnMsg, transitively through the
//	             module-wide call graph (same-type helper methods, methods
//	             called on fields, functions the receiver is passed to);
//	snap(T)    = fields SnapshotTo reads;   restore(T) = fields Restore
//	             writes;
//
// and requires writes ⊆ snap, writes ⊆ restore, and restore ⊆ snap.
// Error-typed fields are exempt everywhere: the Undoable contract
// (internal/node) states snapshots are only taken from fault-free
// machines, so implementations need not encode error values and Restore
// merely clears them.
//
// The field tracker is deliberately conservative: a receiver (or its
// address) escaping into an unresolvable call, an interface value, or a
// plain value copy marks every field, never fewer. A call through an
// interface method or func value first devirtualizes against the
// module-wide type-set index (callgraph.go) and follows every candidate
// body; only a site with no module candidate escapes to all fields.
// Mutation is recognized through assignment (including op-assign and
// ++/--), address-taking, and pointer-receiver method calls on a field;
// nested accesses (a.inner.id, a.rho[p]) attribute to the top-level field,
// which is the granularity the encodings work at.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// stateFinding is one pre-computed state-family finding; the per-check
// entry points filter the shared per-package analysis by check name.
type stateFinding struct {
	pos   token.Pos
	check string
	msg   string
}

func checkStateSnapshot(r *Runner, p *Package, report func(token.Pos, string, string)) {
	reportStateFamily(r, p, CheckStateSnapshot, report)
}

func checkStateRestore(r *Runner, p *Package, report func(token.Pos, string, string)) {
	reportStateFamily(r, p, CheckStateRestore, report)
}

func checkStateSkew(r *Runner, p *Package, report func(token.Pos, string, string)) {
	reportStateFamily(r, p, CheckStateSkew, report)
}

func reportStateFamily(r *Runner, p *Package, check string, report func(token.Pos, string, string)) {
	g := r.module()
	g.add(p)
	sfs, ok := g.state[p.Path]
	if !ok {
		sfs = stateFindingsFor(g, p)
		g.state[p.Path] = sfs
	}
	for _, sf := range sfs {
		if sf.check == check {
			report(sf.pos, sf.check, sf.msg)
		}
	}
}

// stateFindingsFor runs the field-parity analysis over every machine-state
// type declared in p.
func stateFindingsFor(g *moduleGraph, p *Package) []stateFinding {
	methods := collectMethods(p)
	names := make([]string, 0, len(methods))
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []stateFinding
	for _, name := range names {
		m := methods[name]
		snapshot := methodShape(m["SnapshotTo"], p, 1, 1)
		restore := methodShape(m["Restore"], p, 1, 0)
		if snapshot == nil || restore == nil {
			continue
		}

		tn, _ := p.Types.Scope().Lookup(name).(*types.TypeName)
		if tn == nil {
			continue
		}
		named, _ := tn.Type().(*types.Named)
		if named == nil {
			continue
		}
		strct, _ := named.Underlying().(*types.Struct)
		if strct == nil {
			continue
		}

		writes := scanFields(g, p, named, true, m["Init"], m["OnMsg"])
		snapReads := scanFields(g, p, named, false, snapshot)
		restoreWrites := scanFields(g, p, named, true, restore)

		errType := types.Universe.Lookup("error").Type()
		for i := 0; i < strct.NumFields(); i++ {
			f := strct.Field(i)
			if types.Identical(f.Type(), errType) {
				continue // exempt per the Undoable contract: Restore clears errors
			}
			fn := f.Name()
			qual := name + "." + fn
			if writes.has(fn) {
				if !snapReads.has(fn) {
					out = append(out, stateFinding{f.Pos(), CheckStateSnapshot,
						fmt.Sprintf("field %s is written by Init/OnMsg but never encoded by SnapshotTo; undo exploration would restore a stale value into it, and distinct states would merge in the exploration memo", qual)})
				}
				if !restoreWrites.has(fn) {
					out = append(out, stateFinding{f.Pos(), CheckStateRestore,
						fmt.Sprintf("field %s is written by Init/OnMsg but never restored by Restore; its value would leak across explorer branches", qual)})
				}
			}
			if restoreWrites.names[fn] && !snapReads.has(fn) {
				out = append(out, stateFinding{f.Pos(), CheckStateSkew,
					fmt.Sprintf("Restore writes field %s, which SnapshotTo never encodes (snapshot/restore layout skew)", qual)})
			}
		}
	}
	return out
}

// collectMethods indexes p's method declarations: receiver base type name
// -> method name -> declaration.
func collectMethods(p *Package) map[string]map[string]*ast.FuncDecl {
	out := make(map[string]map[string]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			base := recvBaseName(fd)
			if base == "" {
				continue
			}
			if out[base] == nil {
				out[base] = make(map[string]*ast.FuncDecl)
			}
			out[base][fd.Name.Name] = fd
		}
	}
	return out
}

// recvBaseName strips pointers, parens, and type parameters off a receiver
// type expression down to its base identifier.
func recvBaseName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// methodShape returns fd when its signature has the given parameter and
// result counts, nil otherwise — a loose filter that keeps unrelated
// same-named methods from being mistaken for the state contract.
func methodShape(fd *ast.FuncDecl, p *Package, params, results int) *ast.FuncDecl {
	if fd == nil {
		return nil
	}
	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Params().Len() != params || sig.Results().Len() != results {
		return nil
	}
	return fd
}

// fieldSet is the result of one scan: named top-level fields touched, or
// every field (all) when the receiver escaped analysis.
type fieldSet struct {
	names map[string]bool
	all   bool
}

func (fs *fieldSet) has(name string) bool { return fs.all || fs.names[name] }
func (fs *fieldSet) mark(name string)     { fs.names[name] = true }

// scanFields accumulates the fields of typ that the given methods write
// (writes=true) or read (writes=false), transitively through the module
// call graph.
func scanFields(g *moduleGraph, p *Package, typ *types.Named, writes bool, decls ...*ast.FuncDecl) *fieldSet {
	fs := &fieldScan{
		g:           g,
		typObj:      typ.Obj(),
		writes:      writes,
		set:         &fieldSet{names: make(map[string]bool)},
		visited:     make(map[*ast.FuncDecl]bool),
		visitedLits: make(map[*ast.FuncLit]bool),
	}
	for _, fd := range decls {
		if fd == nil {
			continue
		}
		fs.scan(p, fd, recvObj(p, fd))
	}
	return fs.set
}

// fieldScan tracks accesses to one machine type's fields through a value
// of that type: the receiver of the scanned method, or a parameter it was
// passed to.
type fieldScan struct {
	g           *moduleGraph
	typObj      *types.TypeName
	writes      bool
	set         *fieldSet
	visited     map[*ast.FuncDecl]bool
	visitedLits map[*ast.FuncLit]bool
}

// recvObj resolves a method's receiver identifier to its object, or nil
// when the receiver is unnamed (the body then cannot touch fields).
func recvObj(p *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return p.Info.Defs[fd.Recv.List[0].Names[0]]
}

// scan walks fd's body attributing every access through tracked (a value
// of the machine type) to a top-level field. Visited is keyed by
// declaration: re-entering the same body tracks the same type's fields and
// adds nothing.
func (fs *fieldScan) scan(p *Package, fd *ast.FuncDecl, tracked types.Object) {
	if fd == nil || fd.Body == nil || tracked == nil || fs.visited[fd] {
		return
	}
	fs.visited[fd] = true
	fs.scanBody(p, fd.Body, tracked)
}

// scanLit is scan for a closure literal reached through a devirtualized
// func-value call.
func (fs *fieldScan) scanLit(p *Package, lit *ast.FuncLit, tracked types.Object) {
	if lit == nil || tracked == nil || fs.visitedLits[lit] {
		return
	}
	fs.visitedLits[lit] = true
	fs.scanBody(p, lit.Body, tracked)
}

func (fs *fieldScan) scanBody(p *Package, body ast.Node, tracked types.Object) {
	walkParents(body, func(n ast.Node, parents []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || objOf(p, id) != tracked {
			return
		}
		fs.classify(p, id, parents)
	})
}

// classify attributes one appearance of the tracked value.
func (fs *fieldScan) classify(p *Package, id *ast.Ident, parents []ast.Node) {
	i := len(parents) - 1
	if i < 0 {
		return
	}
	switch pd := parents[i].(type) {
	case *ast.SelectorExpr:
		if pd.X != id {
			return
		}
		if fn, ok := p.Info.Uses[pd.Sel].(*types.Func); ok {
			// A method of the machine type called on the tracked value:
			// its body reads/writes the same fields — recurse.
			if d := fs.g.declOf(fn); d != nil {
				fs.scan(d.pkg, d.decl, recvObj(d.pkg, d.decl))
			} else {
				fs.set.all = true // unresolvable method: assume everything
			}
			return
		}
		if _, ok := p.Info.Uses[pd.Sel].(*types.Var); !ok {
			return
		}
		fs.climb(p, pd, parents[:i], pd.Sel.Name)
	case *ast.StarExpr:
		// *recv: a whole-value store writes every field, a whole-value
		// copy reads every field.
		if starIsAssignTarget(pd, parents[:i]) {
			if fs.writes {
				fs.set.all = true
			}
		} else if !fs.writes {
			fs.set.all = true
		}
	case *ast.CallExpr:
		fs.hop(p, pd, id)
	case *ast.UnaryExpr:
		if pd.Op != token.AND {
			return
		}
		if i > 0 {
			if call, ok := parents[i-1].(*ast.CallExpr); ok {
				fs.hop(p, call, pd)
				return
			}
		}
		fs.set.all = true // address escapes into storage: assume everything
	default:
		// Bare value use (copy, comparison, interface conversion): every
		// field is read; nothing is written through a copy.
		if !fs.writes {
			fs.set.all = true
		}
	}
}

// climb walks outward from a field selector rooted at the tracked value to
// decide whether the access mutates the field. In read mode any rooted
// selector counts immediately.
func (fs *fieldScan) climb(p *Package, cur ast.Expr, parents []ast.Node, field string) {
	if !fs.writes {
		fs.set.mark(field)
		return
	}
	for i := len(parents) - 1; i >= 0; i-- {
		switch pn := parents[i].(type) {
		case *ast.SelectorExpr:
			if pn.X != cur {
				return
			}
			if fn, ok := p.Info.Uses[pn.Sel].(*types.Func); ok {
				// Method call on the field path (a.rng.SetState): a
				// pointer-receiver method may mutate the field.
				if ptrRecvMethod(fn) {
					fs.set.mark(field)
				}
				return
			}
			cur = pn // nested field: still the same top-level field
		case *ast.IndexExpr:
			if pn.X != cur {
				return // cur is the index, a read
			}
			cur = pn
		case *ast.SliceExpr:
			if pn.X != cur {
				return
			}
			cur = pn
		case *ast.StarExpr:
			if pn.X != cur {
				return
			}
			cur = pn
		case *ast.ParenExpr:
			cur = pn
		case *ast.AssignStmt:
			for _, l := range pn.Lhs {
				if l == cur {
					fs.set.mark(field)
					return
				}
			}
			return
		case *ast.IncDecStmt:
			if pn.X == cur {
				fs.set.mark(field)
			}
			return
		case *ast.UnaryExpr:
			if pn.Op == token.AND && pn.X == cur {
				fs.set.mark(field) // address taken: may be written through
			}
			return
		case *ast.RangeStmt:
			if pn.Key == cur || pn.Value == cur {
				fs.set.mark(field)
			}
			return
		default:
			return
		}
	}
}

// hop follows the tracked value (or its address) into a call: when the
// callee resolves and the matching parameter has the machine type, its
// body is scanned with that parameter tracked; anything unresolvable is an
// escape and marks every field.
func (fs *fieldScan) hop(p *Package, call *ast.CallExpr, arg ast.Expr) {
	idx := -1
	for j, a := range call.Args {
		if a == arg {
			idx = j
			break
		}
	}
	if idx < 0 {
		// The tracked value is the call's function or a conversion
		// operand; a conversion of the value is a whole-value read.
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			if !fs.writes {
				fs.set.all = true
			}
			return
		}
		fs.set.all = true
		return
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		if !fs.writes {
			fs.set.all = true // conversion/builtin over the value reads it
		}
		return
	}
	cands, kind := fs.g.resolveCall(p, call)
	if len(cands) == 0 || kind == siteUnresolvable {
		fs.set.all = true // no resolvable body could be scanned: escape
		return
	}
	for _, c := range cands {
		fs.hopInto(p, c, idx)
	}
}

// hopInto follows the tracked value into one resolved candidate callee —
// a declared function/method or a closure literal.
func (fs *fieldScan) hopInto(p *Package, c calleeRef, idx int) {
	sig := c.sig()
	if sig == nil || sig.Params().Len() == 0 {
		fs.set.all = true
		return
	}
	pi := idx
	if pi >= sig.Params().Len() {
		if !sig.Variadic() {
			fs.set.all = true
			return
		}
		pi = sig.Params().Len() - 1
	}
	if !fs.machineParam(sig.Params().At(pi).Type()) {
		fs.set.all = true // the value escapes behind an interface or any
		return
	}
	if c.lit != nil {
		obj := fieldObjAt(c.pkg, c.lit.Type.Params, pi)
		if obj == nil {
			return // blank or unnamed parameter: the closure cannot touch it
		}
		fs.scanLit(c.pkg, c.lit, obj)
		return
	}
	d := fs.g.declOf(c.fn)
	if d == nil {
		fs.set.all = true
		return
	}
	obj := paramObjAt(d, pi)
	if obj == nil {
		return // blank or unnamed parameter: the callee cannot touch it
	}
	fs.scan(d.pkg, d.decl, obj)
}

// machineParam reports whether a parameter type is the machine type or a
// pointer to it, i.e. the callee sees the fields directly.
func (fs *fieldScan) machineParam(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj() == fs.typObj
}

// paramObjAt resolves the i-th parameter of a declaration to its object,
// or nil for blank/unnamed parameters.
func paramObjAt(d *fnDecl, i int) types.Object {
	return fieldObjAt(d.pkg, d.decl.Type.Params, i)
}

// fieldObjAt resolves the i-th entry of a parameter list to its object, or
// nil for blank/unnamed parameters.
func fieldObjAt(p *Package, params *ast.FieldList, i int) types.Object {
	if p == nil || params == nil {
		return nil
	}
	idx := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			if idx == i {
				return nil
			}
			idx++
			continue
		}
		for _, name := range field.Names {
			if idx == i {
				if name.Name == "_" {
					return nil
				}
				return p.Info.Defs[name]
			}
			idx++
		}
	}
	return nil
}

// ptrRecvMethod reports whether a method has a pointer receiver (and can
// therefore mutate the value it is called on).
func ptrRecvMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	_, ok := sig.Recv().Type().(*types.Pointer)
	return ok
}

// starIsAssignTarget reports whether a *expr dereference is the target of
// an enclosing assignment.
func starIsAssignTarget(star *ast.StarExpr, parents []ast.Node) bool {
	cur := ast.Expr(star)
	for i := len(parents) - 1; i >= 0; i-- {
		switch pn := parents[i].(type) {
		case *ast.ParenExpr:
			cur = pn
		case *ast.AssignStmt:
			for _, l := range pn.Lhs {
				if l == cur {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}
