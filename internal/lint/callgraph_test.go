package lint

// Unit tests for the module-graph resolution layer: Resolve is consulted
// exactly once per path (hit or miss), failures are negative-cached, and
// the object-sharing premise the whole devirtualization design rests on —
// one *types.Func pointer per function across every package the Loader
// type-checks — actually holds. These run in-package to reach the
// resolver internals.

import (
	"go/types"
	"testing"
)

// countingRunner wires a Runner whose Resolve delegates to a shared
// Loader while counting invocations per path.
func countingRunner(t *testing.T) (*Runner, *Loader, map[string]int) {
	t.Helper()
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, module)
	calls := make(map[string]int)
	r := &Runner{
		Config: DefaultConfig(),
		Fset:   l.Fset,
		Resolve: func(ip string) (*Package, error) {
			calls[ip]++
			return l.Load(ip)
		},
	}
	return r, l, calls
}

func TestResolveMemoization(t *testing.T) {
	r, _, calls := countingRunner(t)
	g := r.module()
	const path = "coleader/internal/pulse"
	p1 := g.resolve(path)
	p2 := g.resolve(path)
	if p1 == nil {
		t.Fatalf("resolve(%s) = nil, want package", path)
	}
	if p1 != p2 {
		t.Errorf("resolve(%s) returned distinct packages across calls", path)
	}
	if calls[path] != 1 {
		t.Errorf("Resolve invoked %d times for %s, want 1 (memoized)", calls[path], path)
	}
}

func TestResolveStdlibNegativeCache(t *testing.T) {
	r, _, calls := countingRunner(t)
	g := r.module()
	// The loader only reaches module-internal paths; stdlib resolution
	// fails, and the failure must be cached so chains ending in the
	// stdlib do not retry the load on every call site.
	for i := 0; i < 3; i++ {
		if p := g.resolve("fmt"); p != nil {
			t.Fatalf("resolve(fmt) = %v, want nil", p)
		}
	}
	if calls["fmt"] != 1 {
		t.Errorf("Resolve invoked %d times for fmt, want 1 (negative-cached)", calls["fmt"])
	}
}

// TestFuncObjectSharing asserts pointer identity of *types.Func across
// packages loaded by one Loader: the object a caller's Info.Uses records
// for a cross-package call is the same pointer the callee's Info.Defs
// records for its declaration. Every map in the module graph (decls,
// facts, funcTargets) keys on that identity.
func TestFuncObjectSharing(t *testing.T) {
	r, l, _ := countingRunner(t)
	g := r.module()
	caller, err := l.Load("coleader/internal/lint/testdata/src/fixt/xblock")
	if err != nil {
		t.Fatal(err)
	}
	g.add(caller)

	var used *types.Func
	for _, obj := range caller.Info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Name() == "Notify" {
			used = fn
			break
		}
	}
	if used == nil {
		t.Fatal("xblock fixture no longer calls Notify; update the test")
	}
	d := g.declOf(used)
	if d == nil {
		t.Fatal("declOf(Notify) = nil: *types.Func from the caller's Uses did not key the callee package's decl index (object sharing broken)")
	}
	if d.decl.Name.Name != "Notify" {
		t.Errorf("declOf resolved to %s, want Notify", d.decl.Name.Name)
	}
	helper := g.pkgs["coleader/internal/lint/testdata/src/fixt/xblockhelp"]
	if helper == nil {
		t.Fatal("resolving Notify did not load xblockhelp")
	}
	var declared *types.Func
	for _, obj := range helper.Info.Defs {
		if fn, ok := obj.(*types.Func); ok && fn.Name() == "Notify" {
			declared = fn
			break
		}
	}
	if declared != used {
		t.Errorf("caller's Uses object %p differs from callee's Defs object %p for Notify", used, declared)
	}
}
