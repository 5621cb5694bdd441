package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coleader/internal/lint"
)

// TestRepoClean is the acceptance gate: the repository's own tree must be
// free of model-invariant violations under the default policy. It runs
// lint.RunModule, the exact path `go run ./cmd/oblint ./...` takes, and
// pins the devirtualization site counts to the committed
// .oblint-baseline.json, so a call-graph drift fails locally too.
func TestRepoClean(t *testing.T) {
	root, module, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "coleader" {
		t.Fatalf("module = %q, want coleader", module)
	}
	res, typeErrs, err := lint.RunModule(root, module, lint.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range typeErrs {
		t.Error(e)
	}
	for _, f := range res.Findings {
		t.Errorf("finding: %s", f)
	}
	// Suppressions in the real tree are allowed but must be consciously
	// tracked in ROADMAP.md; keep the count asserted so adding one is a
	// visible, reviewed change.
	if len(res.Suppressed) != 0 {
		t.Errorf("suppressed findings = %d, want 0 (update this test and ROADMAP.md when suppressing)", len(res.Suppressed))
	}
	data, err := os.ReadFile(filepath.Join(root, ".oblint-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base lint.Result
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if res.Devirt != base.Devirt {
		t.Errorf("devirt = %+v, .oblint-baseline.json has %+v (regenerate it with `go run ./cmd/oblint -json ./... > .oblint-baseline.json` and log the change)",
			res.Devirt, base.Devirt)
	}
}

// TestDefaultConfigRegistersAllPackages: every loaded module package is
// either registered in Layers or explicitly exempt, so the policy cannot
// silently lag the tree.
func TestDefaultConfigRegistersAllPackages(t *testing.T) {
	cfg := lint.DefaultConfig()
	root, module, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := lint.NewLoader(root, module)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.HasPrefix(p.Path, module+"/cmd") || strings.HasPrefix(p.Path, module+"/examples") {
			continue
		}
		if _, ok := cfg.Layers[p.Path]; !ok {
			t.Errorf("package %s missing from DefaultConfig Layers", p.Path)
		}
	}
	// And the reverse: no stale registrations for packages that are gone.
	loaded := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for reg := range cfg.Layers {
		if !loaded[reg] {
			t.Errorf("Layers registers %s, which does not exist", reg)
		}
	}
}

func TestFindModule(t *testing.T) {
	root, module, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "coleader" {
		t.Errorf("module = %q, want coleader", module)
	}
	if !strings.HasSuffix(strings.ReplaceAll(root, "\\", "/"), "repo") && root == "" {
		t.Errorf("root = %q", root)
	}
	if _, _, err := lint.FindModule("/"); err == nil {
		t.Error("FindModule(/) should fail outside any module")
	}
}

func TestFindingJSON(t *testing.T) {
	f := lint.Finding{
		Check: lint.CheckDetTime, Pkg: "p", File: "f.go", Line: 3, Col: 7,
		Msg: "msg", Suppressed: true,
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back lint.Finding
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Errorf("roundtrip %+v != %+v", back, f)
	}
	if f.String() != "f.go:3:7: [det-time] msg" {
		t.Errorf("String() = %q", f.String())
	}
}

func TestAllChecksDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range lint.AllChecks() {
		if seen[c] {
			t.Errorf("duplicate check name %q", c)
		}
		seen[c] = true
	}
	if len(seen) != 16 {
		t.Errorf("expected 16 checks, got %d", len(seen))
	}
	for _, c := range lint.AllChecks() {
		if lint.CheckDoc(c) == "" {
			t.Errorf("check %q has no one-line invariant doc (CheckDoc)", c)
		}
	}
}
