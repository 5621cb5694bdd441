package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Check names, one per enforced invariant. Each maps to a clause of the
// paper's model (see DESIGN.md, "Enforced model invariants").
const (
	CheckObliviousImport  = "oblivious-import"
	CheckObliviousChan    = "oblivious-chan"
	CheckObliviousPayload = "oblivious-payload"
	CheckObliviousTaint   = "oblivious-taint"
	CheckDetTime          = "det-time"
	CheckDetGlobalRand    = "det-globalrand"
	CheckDetMapRange      = "det-maprange"
	CheckLayerDAG         = "layer-dag"
	CheckAtomicMixed      = "atomic-mixed"
	CheckAtomicCopy       = "atomic-copy"
	CheckHandlerBlock     = "handler-block"
	CheckStateSnapshot    = "state-snapshot"
	CheckStateRestore     = "state-restore"
	CheckStateSkew        = "state-skew"
	CheckConcLeak         = "conc-goroutine-leak"
	CheckConcLockOrder    = "conc-lock-order"
)

// AllChecks lists every check name, in report order.
func AllChecks() []string {
	return []string{
		CheckObliviousImport, CheckObliviousChan, CheckObliviousPayload,
		CheckObliviousTaint,
		CheckDetTime, CheckDetGlobalRand, CheckDetMapRange,
		CheckLayerDAG, CheckAtomicMixed, CheckAtomicCopy,
		CheckHandlerBlock,
		CheckStateSnapshot, CheckStateRestore, CheckStateSkew,
		CheckConcLeak, CheckConcLockOrder,
	}
}

// checkDocs states, per check, the one-line model invariant it enforces.
// cmd/oblint -list-checks prints these so CI logs are self-describing.
var checkDocs = map[string]string{
	CheckObliviousImport:  "oblivious packages may not import content-carrying packages (encoding/*, internal/baseline)",
	CheckObliviousChan:    "channels declared in oblivious packages must carry pulse.Pulse only",
	CheckObliviousPayload: "an OnMsg handler may forward its pulse payload verbatim but never inspect it",
	CheckObliviousTaint:   "no branch may depend on a value derived from a pulse payload (taint through assignments, fields, returns, closures)",
	CheckDetTime:          "no wall-clock calls outside internal/live and exempted reporting files (the model has no clocks)",
	CheckDetGlobalRand:    "no global math/rand draws; randomness must be an injected, seeded generator",
	CheckDetMapRange:      "no map iteration in replay-deterministic packages (randomized order leaks nondeterminism)",
	CheckLayerDAG:         "module-internal imports must follow the registered layer DAG; new packages must register",
	CheckAtomicMixed:      "a field accessed via sync/atomic anywhere must be accessed that way everywhere",
	CheckAtomicCopy:       "atomic.Int64-style values must never be copied by value (a copy races with concurrent updates)",
	CheckHandlerBlock:     "event handlers run by internal/sim and internal/live must not reach blocking operations",
	CheckStateSnapshot:    "every field a machine's handlers write must be encoded by SnapshotTo (an omitted field makes undo exploration resurrect stale state and merges distinct states in the memo, whose key is the snapshot)",
	CheckStateRestore:     "every field a machine's handlers write must be reset by Restore (an omitted field leaks state across explorer branches)",
	CheckStateSkew:        "Restore may only write fields SnapshotTo encodes (layout skew between the two desynchronizes snapshot and restore)",
	CheckConcLeak:         "a spawned goroutine must not busy-loop forever: every unconditional loop in its body needs a channel gate (select/receive/range) or a lexical exit (return/break/goto/panic)",
	CheckConcLockOrder:    "two mutexes must be acquired in one consistent order everywhere in a package (an inversion, found over the devirtualized call graph, can deadlock)",
}

// CheckDoc returns the one-line invariant a check enforces ("" if unknown).
func CheckDoc(name string) string { return checkDocs[name] }

// Config is the policy a Runner enforces. The zero value enforces nothing;
// DefaultConfig returns this repository's policy.
type Config struct {
	// Module is the module path all package-relative entries are rooted at.
	Module string

	// Oblivious lists import paths of content-oblivious packages: those
	// whose algorithms may react only to the order and ports of pulse
	// arrivals (paper Section 2).
	Oblivious []string

	// PulseType is the fully qualified contentless message type, e.g.
	// "coleader/internal/pulse.Pulse". It is the only element type allowed
	// for channels declared inside oblivious packages.
	PulseType string

	// ContentImports are import paths (exact or prefix) that carry message
	// content and are therefore banned inside oblivious packages.
	ContentImports []string

	// TimeExempt are import paths (exact or prefix) where wall-clock calls
	// (time.Now, time.Sleep, ...) are permitted. Everywhere else they are
	// nondeterminism leaks.
	TimeExempt []string

	// TimeExemptFiles are module-relative file paths (slash-separated)
	// individually exempt from det-time: flag-parsing and reporting files
	// in cmd/ that legitimately time their own output. This is deliberately
	// file-granular so simulation-critical logic added next to them is
	// still checked.
	TimeExemptFiles []string

	// HandlerPkgs are packages whose Init/OnMsg handler methods run on the
	// event loops of internal/sim and internal/live; blocking operations
	// reachable inside them would deadlock the runtime.
	HandlerPkgs []string

	// EmitterType is the fully qualified generic emitter interface handed
	// to handlers, e.g. "coleader/internal/node.Emitter". Any type whose
	// OnMsg method takes an instantiation of it is machine-shaped: its
	// handlers are treated as handler-block roots even outside HandlerPkgs,
	// so new machine packages are covered before anyone registers them.
	EmitterType string

	// MapRangePkgs are packages whose replays must be deterministic, so
	// ranging over a map (randomized iteration order) is flagged.
	MapRangePkgs []string

	// Layers encodes the intended import DAG: package path -> the
	// module-internal imports it may use. A module package missing from
	// the map (and not matched by LayerExempt) is an error, which forces
	// every new package to take a conscious position in the layering.
	Layers map[string][]string

	// LayerExempt are import paths (exact or prefix) outside the layering
	// policy, e.g. cmd/ and examples/ which may import anything.
	LayerExempt []string

	// AtomicPkgs are packages subject to the mixed atomic/plain field
	// access check.
	AtomicPkgs []string

	// Checks optionally restricts which checks run; empty means all.
	Checks []string
}

// FindingsSchemaVersion identifies the JSON shape of Result as emitted by
// cmd/oblint -json (fields, check names, sort order). Bump it whenever a
// change would make two otherwise-equal trees produce different bytes, so
// CI artifact diffs compare like with like. v3: the conc-* check family
// and per-site devirtualization stats (Result.Devirt).
const FindingsSchemaVersion = 3

// Finding is one rule violation at a source position.
type Finding struct {
	Check      string `json:"check"`
	Pkg        string `json:"pkg"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Msg        string `json:"msg"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Msg)
}

// DevirtStats counts dynamic call sites — interface method calls and
// calls through func-typed values — by resolution outcome against the
// module-wide type-set index (callgraph.go). Resolved sites devirtualized
// to exactly one candidate, over-approximated sites to several (all
// followed), unresolvable sites to none: those end call chains and are the
// analyzer's remaining soundness gap, ratcheted down in CI.
type DevirtStats struct {
	ResolvedSites     int `json:"resolvedSites"`
	OverApproxSites   int `json:"overApproxSites"`
	UnresolvableSites int `json:"unresolvableSites"`
}

// Add accumulates o into s.
func (s *DevirtStats) Add(o DevirtStats) {
	s.ResolvedSites += o.ResolvedSites
	s.OverApproxSites += o.OverApproxSites
	s.UnresolvableSites += o.UnresolvableSites
}

// Result is the outcome of one Run: active findings fail the build,
// suppressed ones (silenced by //oblint:allow directives) are reported for
// tracking but do not fail.
type Result struct {
	// SchemaVersion is FindingsSchemaVersion when emitted by cmd/oblint
	// -json; zero (omitted) inside the analyzer.
	SchemaVersion int `json:"schemaVersion,omitempty"`

	Findings   []Finding `json:"findings"`
	Suppressed []Finding `json:"suppressed,omitempty"`

	// Devirt aggregates the dynamic-call-site resolution stats of every
	// analyzed package.
	Devirt DevirtStats `json:"devirt"`
}

// Runner applies a Config to loaded packages.
type Runner struct {
	Config Config
	Fset   *token.FileSet

	// Resolve loads the package at an import path for the interprocedural
	// checks; wire it to the Loader that loaded the analyzed packages
	// (loader.Load) so type objects are shared. When nil, call chains end
	// at the boundary of the packages passed to Run, which weakens the
	// interprocedural checks but never breaks the per-package ones.
	Resolve func(path string) (*Package, error)

	// List enumerates every module package path for the devirtualization
	// type-set index (callgraph.go). Wire it to the same package
	// discovery the run uses (modulePackageDirs / LoadAll); when nil the
	// index covers only the packages the graph has already resolved,
	// which is what fixture harnesses want.
	List func() []string

	graph *moduleGraph
}

type checkFn func(r *Runner, p *Package, report func(pos token.Pos, check, msg string))

func (r *Runner) enabled(name string) bool {
	if len(r.Config.Checks) == 0 {
		return true
	}
	for _, c := range r.Config.Checks {
		if c == name {
			return true
		}
	}
	return false
}

// allCheckFns pairs every check name with its implementation, in report
// order. Each runs on one package at a time; the interprocedural ones
// follow call chains into other packages through Resolve.
var allCheckFns = []struct {
	name string
	fn   checkFn
}{
	{CheckObliviousImport, checkObliviousImport},
	{CheckObliviousChan, checkObliviousChan},
	{CheckObliviousPayload, checkObliviousPayload},
	{CheckObliviousTaint, checkObliviousTaint},
	{CheckDetTime, checkDetTime},
	{CheckDetGlobalRand, checkDetGlobalRand},
	{CheckDetMapRange, checkDetMapRange},
	{CheckLayerDAG, checkLayerDAG},
	{CheckAtomicMixed, checkAtomicMixed},
	{CheckAtomicCopy, checkAtomicCopy},
	{CheckHandlerBlock, checkHandlerBlock},
	{CheckStateSnapshot, checkStateSnapshot},
	{CheckStateRestore, checkStateRestore},
	{CheckStateSkew, checkStateSkew},
	{CheckConcLeak, checkConcLeak},
	{CheckConcLockOrder, checkConcLockOrder},
}

// Run applies every enabled check to every package and splits the findings
// by suppression state. Findings are sorted by position.
func (r *Runner) Run(pkgs []*Package) Result {
	var res Result
	for _, p := range pkgs {
		allow := collectDirectives(p, r.Fset)
		report := func(pos token.Pos, check, msg string) {
			position := r.Fset.Position(pos)
			f := Finding{
				Check: check,
				Pkg:   p.Path,
				File:  position.Filename,
				Line:  position.Line,
				Col:   position.Column,
				Msg:   msg,
			}
			if allow.allows(position.Filename, position.Line, check) {
				f.Suppressed = true
				res.Suppressed = append(res.Suppressed, f)
				return
			}
			res.Findings = append(res.Findings, f)
		}
		for _, c := range allCheckFns {
			if r.enabled(c.name) {
				c.fn(r, p, report)
			}
		}
		res.Devirt.Add(r.module().devirtStats(p))
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res
}

// RunModule lints every package of the module rooted at root under cfg —
// the run `oblint ./...` performs. The devirtualization index covers
// every module package. It returns the result (file paths absolute) and
// the soft type errors of every package, formatted.
func RunModule(root, module string, cfg Config) (Result, []string, error) {
	loader := NewLoader(root, module)
	pkgs, err := loader.LoadAll()
	if err != nil {
		return Result{}, nil, err
	}
	paths := make([]string, len(pkgs))
	var typeErrs []string
	for i, p := range pkgs {
		paths[i] = p.Path
		for _, e := range p.TypeErrors {
			typeErrs = append(typeErrs, fmt.Sprintf("typecheck %s: %v", p.Path, e))
		}
	}
	runner := &Runner{Config: cfg, Fset: loader.Fset, Resolve: loader.Load,
		List: func() []string { return paths }}
	return runner.Run(pkgs), typeErrs, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Col != fs[j].Col {
			return fs[i].Col < fs[j].Col
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		// Msg is the final tiebreak so the order is total: two different
		// findings can share a position and a check (e.g. two state-* gaps
		// reported at one field), and CI diffs cmd/oblint -json output
		// byte-for-byte.
		return fs[i].Msg < fs[j].Msg
	})
}

// matchPath reports whether path equals one of the entries or sits below
// one (prefix match on whole path segments).
func matchPath(path string, entries []string) bool {
	for _, e := range entries {
		if path == e || strings.HasPrefix(path, e+"/") {
			return true
		}
	}
	return false
}

// directives records //oblint:allow grants: file -> line -> check set. A
// directive on line L grants L and L+1, so it works both as a trailing
// comment and as a standalone comment above the offending line.
type directives map[string]map[int]map[string]bool

func (d directives) allows(file string, line int, check string) bool {
	return d[file][line][check]
}

func collectDirectives(p *Package, fset *token.FileSet) directives {
	d := make(directives)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//oblint:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, check := range strings.Fields(rest) {
					for _, l := range []int{pos.Line, pos.Line + 1} {
						if d[pos.Filename] == nil {
							d[pos.Filename] = make(map[int]map[string]bool)
						}
						if d[pos.Filename][l] == nil {
							d[pos.Filename][l] = make(map[string]bool)
						}
						d[pos.Filename][l][check] = true
					}
				}
			}
		}
	}
	return d
}

// walkParents traverses every node under root, invoking visit with the
// node and its ancestor stack (innermost last).
func walkParents(root ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// quote renders a path list for messages.
func quote(paths []string) string {
	qs := make([]string, len(paths))
	for i, p := range paths {
		qs[i] = strconv.Quote(p)
	}
	return strings.Join(qs, ", ")
}
