package lint_test

// Fixture-driven expectation tests: each fixture file marks the lines
// where a check must fire with a trailing want comment holding a quoted
// regexp (several regexps on one line mean several findings on that line;
// the quoted text is a Go string literal, so regex escapes are doubled).
// The
// harness runs one check family per fixture group and requires an exact
// match: every want satisfied, no unexpected findings.

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"coleader/internal/lint"
)

var wantRE = regexp.MustCompile(`// want (.+)$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants parses `// want` comments from every .go file in dir.
func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			qs := quotedRE.FindAllStringSubmatch(m[1], -1)
			if qs == nil {
				t.Fatalf("%s:%d: malformed want comment", path, i+1)
			}
			for _, q := range qs {
				lit, err := strconv.Unquote(q[0])
				if err != nil {
					t.Fatalf("%s:%d: bad want literal %s: %v", path, i+1, q[0], err)
				}
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants = append(wants, want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// fixtureLoader returns a loader rooted at the repo module with the
// fixture tree mounted at import-path prefix "fixt".
func fixtureLoader(t *testing.T) *lint.Loader {
	t.Helper()
	root, module, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader(root, module)
	fixt, err := filepath.Abs("testdata/src/fixt")
	if err != nil {
		t.Fatal(err)
	}
	l.ExtraRoots = map[string]string{"fixt": fixt}
	return l
}

// runFixture lints the given fixture packages under cfg and checks the
// findings against the packages' want comments.
func runFixture(t *testing.T, cfg lint.Config, pkgPaths ...string) lint.Result {
	t.Helper()
	l := fixtureLoader(t)
	var pkgs []*lint.Package
	var wants []want
	for _, ip := range pkgPaths {
		p, err := l.Load(ip)
		if err != nil {
			t.Fatalf("load %s: %v", ip, err)
		}
		if len(p.TypeErrors) > 0 {
			t.Fatalf("fixture %s has type errors: %v", ip, p.TypeErrors)
		}
		pkgs = append(pkgs, p)
		wants = append(wants, collectWants(t, p.Dir)...)
	}
	runner := &lint.Runner{Config: cfg, Fset: l.Fset, Resolve: l.Load}
	res := runner.Run(pkgs)

	matched := make([]bool, len(res.Findings))
	for _, w := range wants {
		ok := false
		for i, f := range res.Findings {
			if matched[i] || !sameFile(f.File, w.file) || f.Line != w.line {
				continue
			}
			if w.re.MatchString(f.Msg) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, f := range res.Findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	return res
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

func TestFixtureOblivious(t *testing.T) {
	cfg := lint.Config{
		Oblivious:      []string{"fixt/obliv"},
		PulseType:      "coleader/internal/pulse.Pulse",
		ContentImports: []string{"encoding", "fixt/content"},
		Checks: []string{
			lint.CheckObliviousImport, lint.CheckObliviousChan, lint.CheckObliviousPayload,
		},
	}
	runFixture(t, cfg, "fixt/obliv")
}

func TestFixtureDeterminism(t *testing.T) {
	cfg := lint.Config{
		MapRangePkgs: []string{"fixt/det"},
		Checks: []string{
			lint.CheckDetTime, lint.CheckDetGlobalRand, lint.CheckDetMapRange,
		},
	}
	res := runFixture(t, cfg, "fixt/det")

	// The //oblint:allow directive must route the time.Now in suppressed()
	// into the suppressed list, not the findings.
	if len(res.Suppressed) != 1 {
		t.Fatalf("suppressed = %v, want exactly 1", res.Suppressed)
	}
	if s := res.Suppressed[0]; s.Check != lint.CheckDetTime || !s.Suppressed {
		t.Errorf("suppressed finding = %+v, want det-time with Suppressed=true", s)
	}
}

// TestFixtureFaultPolicy proves the checks internal/fault is registered
// under (content-obliviousness + replay determinism) actually bite on a
// fault-plane-shaped package: an adversary that reads content or draws
// from unseeded sources must be flagged.
func TestFixtureFaultPolicy(t *testing.T) {
	cfg := lint.Config{
		Oblivious:      []string{"fixt/faultplane"},
		PulseType:      "coleader/internal/pulse.Pulse",
		ContentImports: []string{"encoding"},
		MapRangePkgs:   []string{"fixt/faultplane"},
		Checks: []string{
			lint.CheckObliviousImport, lint.CheckObliviousChan,
			lint.CheckDetTime, lint.CheckDetGlobalRand, lint.CheckDetMapRange,
		},
	}
	runFixture(t, cfg, "fixt/faultplane")
}

func TestFixtureLayering(t *testing.T) {
	cfg := lint.Config{
		Module: "fixt",
		Layers: map[string][]string{
			"fixt/layer/a": {},
			"fixt/layer/b": {"fixt/layer/a"},
			"fixt/layer/c": {"fixt/layer/b"},
			// leaf is registered with no allowed internal deps, like the
			// real foundation packages (pulse, xrand, stats, benchjson).
			"fixt/layer/leaf": {},
			// fixt/layer/unreg deliberately absent.
		},
		// The non-layer fixture packages are out of scope for this test.
		LayerExempt: []string{"fixt/obliv", "fixt/det", "fixt/content", "fixt/atomicmix", "fixt/faultplane"},
		Checks:      []string{lint.CheckLayerDAG},
	}
	runFixture(t, cfg, "fixt/layer/a", "fixt/layer/b", "fixt/layer/c",
		"fixt/layer/leaf", "fixt/layer/unreg")
}

func TestFixtureAtomicMixed(t *testing.T) {
	cfg := lint.Config{
		AtomicPkgs: []string{"fixt/atomicmix"},
		Checks:     []string{lint.CheckAtomicMixed},
	}
	runFixture(t, cfg, "fixt/atomicmix")
}

func TestFixtureTaint(t *testing.T) {
	cfg := lint.Config{
		Oblivious: []string{"fixt/taint"},
		PulseType: "coleader/internal/pulse.Pulse",
		Checks:    []string{lint.CheckObliviousTaint},
	}
	runFixture(t, cfg, "fixt/taint")
}

func TestFixtureHandlerBlock(t *testing.T) {
	cfg := lint.Config{
		HandlerPkgs: []string{"fixt/handler"},
		Checks:      []string{lint.CheckHandlerBlock},
	}
	runFixture(t, cfg, "fixt/handler")
}

// stateChecks is the full state-integrity family; the fixtures are built
// so each family member fires only where its want comment says.
var stateChecks = []string{
	lint.CheckStateSnapshot, lint.CheckStateRestore, lint.CheckStateSkew,
}

func TestFixtureStateSnapshot(t *testing.T) {
	runFixture(t, lint.Config{Checks: stateChecks}, "fixt/statesnap")
}

func TestFixtureStateRestore(t *testing.T) {
	runFixture(t, lint.Config{Checks: stateChecks}, "fixt/staterestore")
}

// TestFixtureCrossPackageBlock proves two things at once: handler roots
// are auto-detected from the OnMsg emitter signature (no HandlerPkgs
// entry), and blocking operations are found through call chains into
// other packages. The fixtures import each other by real module path so
// the same sources also load under cmd/oblint without ExtraRoots.
func TestFixtureCrossPackageBlock(t *testing.T) {
	cfg := lint.Config{
		EmitterType: "coleader/internal/node.Emitter",
		Checks:      []string{lint.CheckHandlerBlock},
	}
	runFixture(t, cfg,
		"coleader/internal/lint/testdata/src/fixt/xblock",
		"coleader/internal/lint/testdata/src/fixt/xblockhelp")
}

// TestFixtureCrossPackageTaint proves payload taint crosses package
// boundaries in both directions: into a helper's parameter (the sink is
// in the helper) and back out through a helper's return value (the sink
// is in the oblivious caller).
func TestFixtureCrossPackageTaint(t *testing.T) {
	cfg := lint.Config{
		Oblivious: []string{"coleader/internal/lint/testdata/src/fixt/xtaint"},
		PulseType: "coleader/internal/pulse.Pulse",
		Checks:    []string{lint.CheckObliviousTaint},
	}
	runFixture(t, cfg,
		"coleader/internal/lint/testdata/src/fixt/xtaint",
		"coleader/internal/lint/testdata/src/fixt/xtainthelp")
}

func TestFixtureAtomicCopy(t *testing.T) {
	cfg := lint.Config{
		AtomicPkgs: []string{"fixt/atomiccopy"},
		Checks:     []string{lint.CheckAtomicCopy},
	}
	runFixture(t, cfg, "fixt/atomiccopy")
}

// TestFixtureDynamicBlock proves handler-block follows dynamic dispatch:
// the machine's handler blocks only through an interface method and a
// func-typed field, both resolved against the module type-set index to
// targets in a sibling package.
func TestFixtureDynamicBlock(t *testing.T) {
	cfg := lint.Config{
		EmitterType: "coleader/internal/node.Emitter",
		Checks:      []string{lint.CheckHandlerBlock},
	}
	runFixture(t, cfg,
		"coleader/internal/lint/testdata/src/fixt/dynblock",
		"coleader/internal/lint/testdata/src/fixt/dynblockhelp")
}

// TestFixtureDynamicTaint proves payload taint flows through dynamic
// dispatch: into a devirtualized interface method's parameter (the sink
// is in the helper) and back out through a bound func value's return
// (the sink is in the oblivious caller).
func TestFixtureDynamicTaint(t *testing.T) {
	cfg := lint.Config{
		Oblivious: []string{"coleader/internal/lint/testdata/src/fixt/dyntaint"},
		PulseType: "coleader/internal/pulse.Pulse",
		Checks:    []string{lint.CheckObliviousTaint},
	}
	runFixture(t, cfg,
		"coleader/internal/lint/testdata/src/fixt/dyntaint",
		"coleader/internal/lint/testdata/src/fixt/dyntainthelp")
}

func TestFixtureConcLeak(t *testing.T) {
	runFixture(t, lint.Config{Checks: []string{lint.CheckConcLeak}}, "fixt/concleak")
}

func TestFixtureConcLockOrder(t *testing.T) {
	runFixture(t, lint.Config{Checks: []string{lint.CheckConcLockOrder}}, "fixt/conclock")
}
