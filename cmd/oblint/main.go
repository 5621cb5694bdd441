// Command oblint is the model-invariant static analyzer for this
// repository. It mechanically enforces the discipline the paper's results
// rest on — content-obliviousness (with payload taint followed across
// function and package boundaries), determinism, layering, atomic
// hygiene, non-blocking handlers, machine state-encoding integrity (the
// state-* snapshot/restore/key field-parity family), and concurrency
// integrity (the conc-* goroutine-leak / lock-order family) — across
// every package in the module. The interprocedural checks run on a
// devirtualized call graph: calls through interfaces and func values
// resolve to every live module implementation or bound function, and each
// dynamic call site's resolution outcome (resolved / over-approximated /
// unresolvable) is counted in the -json "devirt" object. See internal/lint
// for the checks and DESIGN.md ("Enforced model invariants") for the
// policy.
//
// Usage:
//
//	go run ./cmd/oblint ./...                    # lint the whole module
//	go run ./cmd/oblint -json ./...              # machine-readable findings
//	go run ./cmd/oblint -list-checks             # checks with their invariants
//	go run ./cmd/oblint -check det-time,layer-dag ./...
//
// A whole-module run (./... or no arguments) indexes every module package
// for devirtualization; explicit package arguments index only the
// packages the run reaches.
//
// -json output carries a schemaVersion field and findings sorted by
// (file, line, check), so two runs over the same tree are byte-identical
// and CI diffs the output against the committed .oblint-baseline.json.
//
// Exit status: 0 when clean, 1 when findings exist, 2 on load or flag
// errors. Suppressed findings (//oblint:allow) never fail the run but are
// counted on stderr and included in -json output so CI can diff them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coleader/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	listChecks := flag.Bool("list-checks", false, "list every check with its one-line invariant and exit")
	only := flag.String("check", "", "comma-separated subset of checks to run (see -list-checks)")
	dir := flag.String("C", ".", "directory inside the target module")
	typeErrs := flag.Bool("typeerrors", false, "also print soft type-check errors")
	oblivious := flag.String("oblivious", "", "comma-separated extra packages to treat as content-oblivious (fixture/testing aid)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: oblint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listChecks {
		for _, c := range lint.AllChecks() {
			fmt.Printf("%-18s %s\n", c, lint.CheckDoc(c))
		}
		return
	}

	root, module, err := lint.FindModule(*dir)
	if err != nil {
		fatal(err)
	}

	cfg := lint.DefaultConfig()
	for _, p := range strings.Split(*oblivious, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Oblivious = append(cfg.Oblivious, p)
		}
	}
	if *only != "" {
		known := make(map[string]bool)
		for _, c := range lint.AllChecks() {
			known[c] = true
		}
		for _, c := range strings.Split(*only, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			if !known[c] {
				fatal(fmt.Errorf("unknown check %q (see -list-checks); a typo here would silently disable the gate", c))
			}
			cfg.Checks = append(cfg.Checks, c)
		}
		if len(cfg.Checks) == 0 {
			fatal(fmt.Errorf("-check %q names no checks", *only))
		}
	}

	// Package arguments: "./..." (or none) means the whole module;
	// anything else is a module-relative package list.
	args := flag.Args()
	all := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "..." || a == module+"/..." {
			all = true
		}
	}

	var res lint.Result
	var softErrs []string
	if all {
		res, softErrs, err = lint.RunModule(root, module, cfg)
		if err != nil {
			fatal(err)
		}
	} else {
		loader := lint.NewLoader(root, module)
		var pkgs []*lint.Package
		for _, a := range args {
			ip := strings.TrimPrefix(filepath.ToSlash(a), "./")
			if ip != module && !strings.HasPrefix(ip, module+"/") {
				ip = module + "/" + ip
			}
			p, err := loader.Load(ip)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, p)
		}
		runner := &lint.Runner{Config: cfg, Fset: loader.Fset, Resolve: loader.Load}
		res = runner.Run(pkgs)
		for _, p := range pkgs {
			for _, e := range p.TypeErrors {
				softErrs = append(softErrs, fmt.Sprintf("typecheck %s: %v", p.Path, e))
			}
		}
	}

	if *typeErrs {
		for _, line := range softErrs {
			fmt.Fprintln(os.Stderr, line)
		}
	}

	rel := relativize(res, root)
	rel.SchemaVersion = lint.FindingsSchemaVersion
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rel); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range rel.Findings {
			fmt.Println(f)
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(os.Stderr, "oblint: %d finding(s) suppressed by //oblint:allow\n", n)
		}
	}

	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "oblint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// relativize rewrites absolute file paths relative to the module root for
// stable, diffable output; every non-path field rides through unchanged.
func relativize(res lint.Result, root string) lint.Result {
	rel := func(fs []lint.Finding) []lint.Finding {
		out := make([]lint.Finding, len(fs))
		for i, f := range fs {
			if r, err := filepath.Rel(root, f.File); err == nil {
				f.File = filepath.ToSlash(r)
			}
			out[i] = f
		}
		return out
	}
	res.Findings = rel(res.Findings)
	res.Suppressed = rel(res.Suppressed)
	return res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oblint:", err)
	os.Exit(2)
}
