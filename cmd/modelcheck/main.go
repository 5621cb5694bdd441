// Command modelcheck exhaustively explores EVERY asynchronous schedule of
// a small ring instance and verifies the paper's guarantees in all of
// them. On a violation it prints the witness schedule and replays it with
// a trace attached — the full debugging loop in one command.
//
// Usage:
//
//	modelcheck -algo alg2 -ids 3,1,2
//	modelcheck -algo alg3 -ids 2,1 -flips 0,1
//	modelcheck -algo alg1 -ids 2,2,1             # duplicate IDs (Lemma 16)
//	modelcheck -algo alg2-unguarded -ids 1,3     # the ablation: finds the bug
//	modelcheck -algo alg2 -ids 2,1 -explore-inits
//	modelcheck -algo alg2 -ids 3,1,2 -json       # machine-readable report
//	modelcheck -algo alg2 -ids 3,1,2 -audit-collisions
//	modelcheck -algo alg2 -ids 3,1,2 -faults loss,crash   # fault-aware DFS
//	modelcheck -algo alg1 -ids 2,1,2 -faults corrupt -fault-budget 2
//
// With -faults the DFS branches over every injection point of the listed
// classes (up to -fault-budget per path) alongside every scheduler choice,
// and classifies each faulted terminal as clean, degraded, or stalled
// instead of aborting. Pulse-adding classes (dup, spurious, restart) have
// infinite state spaces; bound them with -max-states and read the verdict
// as certified-up-to-budget.
//
// The report (counters, verdict, witness) is identical under either memo
// (-audit-collisions or not) and from run to run: the exploration is one
// canonical depth-first search, so -json output is byte-for-byte
// reproducible, fault-aware runs and runs that abort on the state budget
// included.
//
// Malformed input — a bad flag value, an ID the algorithm rejects, a
// -flips list whose length differs from -ids — is reported on stderr as
// an input error, never as a VIOLATION; VIOLATION is reserved for
// explorations that found a failing schedule and attach it as a witness.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/ring"
	"coleader/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errNotVerified):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

// errNotVerified is run's result for an exploration that completed its
// report on stdout but did not verify the instance: a violation, a stall,
// or an exhausted budget. Every other error is an input error.
var errNotVerified = errors.New("instance not verified")

// jsonReport is the -json output. Deliberately excludes anything
// execution-dependent (timing): the same instance must produce the same
// bytes on every run.
type jsonReport struct {
	Algo           string      `json:"algo"`
	IDs            []uint64    `json:"ids"`
	Flips          string      `json:"flips,omitempty"`
	ExploreInits   bool        `json:"exploreInits"`
	OK             bool        `json:"ok"`
	StatesVisited  int         `json:"statesVisited"`
	TerminalStates int         `json:"terminalStates"`
	MaxDepth       int         `json:"maxDepth"`
	Confluent      bool        `json:"confluent"`
	Faults         *jsonFaults `json:"faults,omitempty"`
	Error          string      `json:"error,omitempty"`
	Witness        []string    `json:"witness,omitempty"`
}

// jsonFaults is the fault-aware section of the -json report. It is nil
// (and absent from the output) in faultless runs, so faultless -json
// bytes are unchanged by the fault feature's existence.
type jsonFaults struct {
	Classes           string `json:"classes"`
	Budget            int    `json:"budget"`
	Window            uint64 `json:"window,omitempty"`
	InjectionEdges    int    `json:"injectionEdges"`
	ViolationEdges    int    `json:"violationEdges"`
	CleanTerminals    int    `json:"cleanTerminals"`
	DegradedTerminals int    `json:"degradedTerminals"`
	StalledTerminals  int    `json:"stalledTerminals"`
}

// run parses args, explores the instance, and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	algo := fs.String("algo", "alg2", "algorithm: alg1 | alg2 | alg3 | alg2-unguarded")
	idsFlag := fs.String("ids", "", "comma-separated node IDs")
	flipsFlag := fs.String("flips", "", "comma-separated 0/1 port flips (alg3)")
	exploreInits := fs.Bool("explore-inits", false, "also branch over node wake-up interleavings")
	maxStates := fs.Int("max-states", 1<<22, "state budget (must be positive)")
	auditCollisions := fs.Bool("audit-collisions", false, "keep full keys alongside fingerprints and fail on any collision")
	jsonOut := fs.Bool("json", false, "emit a machine-readable report on stdout")
	faultsFlag := fs.String("faults", "", "fault classes to branch over (loss,dup,spurious,crash,restart,corrupt or all); empty disables fault-aware exploration")
	faultBudget := fs.Int("fault-budget", 1, "max injections per explored path (with -faults; must not be negative)")
	faultWindow := fs.Uint64("fault-window", 0, "restrict injections to each entity's first N events (0 = unbounded)")
	faultMasks := fs.String("fault-masks", "", "comma-separated corrupt XOR masks (default: the eight single-bit masks)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *maxStates <= 0:
		return fmt.Errorf("-max-states must be positive, got %d", *maxStates)
	case *faultBudget < 0:
		return fmt.Errorf("-fault-budget must not be negative, got %d", *faultBudget)
	}

	var plan fault.Plan
	if *faultsFlag != "" {
		classes, err := fault.ParseSet(*faultsFlag)
		if err != nil {
			return err
		}
		plan = fault.Plan{Classes: classes, Budget: *faultBudget, Window: *faultWindow}
		for _, part := range strings.Split(*faultMasks, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			m, err := strconv.ParseUint(part, 0, 8)
			if err != nil {
				return fmt.Errorf("bad corrupt mask %q: %w", part, err)
			}
			plan.CorruptMasks = append(plan.CorruptMasks, byte(m))
		}
		// Fault-aware spaces are far larger (and divergent for the
		// pulse-adding classes); unless the user pinned -max-states, use
		// the fault-mode default budget rather than the faultless one.
		explicitMax := false
		fs.Visit(func(f *flag.Flag) { explicitMax = explicitMax || f.Name == "max-states" })
		if !explicitMax {
			*maxStates = 0 // let check.ExhaustiveFaults pick its fault-mode default
		}
	}

	ids, err := ring.ParseIDs(*idsFlag)
	if err != nil {
		return fmt.Errorf("-ids (e.g. -ids 3,1,2): %w", err)
	}
	var topo ring.Topology
	if *flipsFlag != "" {
		flips, err := ring.ParseFlips(*flipsFlag)
		if err != nil {
			return fmt.Errorf("-flips: %w", err)
		}
		if len(flips) != len(ids) {
			return fmt.Errorf("-flips lists %d nodes but -ids lists %d", len(flips), len(ids))
		}
		topo, err = ring.NonOriented(flips)
		if err != nil {
			return err
		}
	} else if topo, err = ring.Oriented(len(ids)); err != nil {
		return err
	}

	memo := check.MemoFingerprint
	if *auditCollisions {
		memo = check.MemoAudit
	}

	n, idMax := len(ids), ring.MaxID(ids)
	maxIdx, uniqueMax := ring.MaxIndex(ids)
	cfg := check.Config{
		Topo:         topo,
		ExploreInits: *exploreInits,
		MaxStates:    *maxStates,
		Memo:         memo,
	}

	switch *algo {
	case "alg1":
		cfg.NewMachines = func() ([]node.PulseMachine, error) { return core.Alg1Machines(topo, ids) }
		cfg.Check = func(f check.Final) error {
			if want := core.PredictedAlg1Pulses(n, idMax); f.Sent != want {
				return fmt.Errorf("sent %d pulses, want %d", f.Sent, want)
			}
			return nil
		}
	case "alg2", "alg2-unguarded":
		unguarded := *algo == "alg2-unguarded"
		cfg.NewMachines = func() ([]node.PulseMachine, error) {
			ms := make([]node.PulseMachine, n)
			for k := range ms {
				var m node.PulseMachine
				var err error
				if unguarded {
					m, err = core.NewAlg2Unguarded(ids[k], topo.CWPort(k))
				} else {
					m, err = core.NewAlg2(ids[k], topo.CWPort(k))
				}
				if err != nil {
					return nil, err
				}
				ms[k] = m
			}
			return ms, nil
		}
		cfg.Check = func(f check.Final) error {
			if !uniqueMax {
				return fmt.Errorf("alg2 requires a unique maximum ID")
			}
			if len(f.Leaders) != 1 || f.Leaders[0] != maxIdx {
				return fmt.Errorf("leaders %v, want [%d]", f.Leaders, maxIdx)
			}
			if want := core.PredictedAlg2Pulses(n, idMax); f.Sent != want {
				return fmt.Errorf("sent %d pulses, want %d", f.Sent, want)
			}
			for k, st := range f.Statuses {
				if !st.Terminated {
					return fmt.Errorf("node %d did not terminate", k)
				}
			}
			return nil
		}
	case "alg3":
		cfg.NewMachines = func() ([]node.PulseMachine, error) {
			return core.Alg3Machines(n, ids, core.SchemeSuccessor)
		}
		cfg.Check = func(f check.Final) error {
			if len(f.Leaders) != 1 || f.Leaders[0] != maxIdx {
				return fmt.Errorf("leaders %v, want [%d]", f.Leaders, maxIdx)
			}
			if want := core.PredictedAlg3Pulses(n, idMax, core.SchemeSuccessor); f.Sent != want {
				return fmt.Errorf("sent %d pulses, want %d", f.Sent, want)
			}
			return nil
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	var rep check.Report
	var frep check.FaultReport
	if plan.Active() {
		frep, err = check.ExhaustiveFaults(cfg, plan)
		rep = frep.Report
	} else {
		rep, err = check.Exhaustive(cfg)
	}
	if _, explored := check.Witness(err); err != nil && !explored {
		// No schedule led here: the configuration itself was rejected.
		return err
	}

	if *jsonOut {
		out := jsonReport{
			Algo:           *algo,
			IDs:            ids,
			Flips:          *flipsFlag,
			ExploreInits:   *exploreInits,
			OK:             err == nil,
			StatesVisited:  rep.StatesVisited,
			TerminalStates: rep.TerminalStates,
			MaxDepth:       rep.MaxDepth,
			Confluent:      err == nil && rep.TerminalStates == 1,
		}
		if plan.Active() {
			out.Faults = &jsonFaults{
				Classes:           plan.Classes.String(),
				Budget:            plan.Budget,
				Window:            plan.Window,
				InjectionEdges:    frep.InjectionEdges,
				ViolationEdges:    frep.ViolationEdges,
				CleanTerminals:    frep.CleanTerminals,
				DegradedTerminals: frep.DegradedTerminals,
				StalledTerminals:  frep.StalledTerminals,
			}
		}
		if err != nil {
			out.Error = err.Error()
			// A budget abort is not a violation: the attached schedule is
			// just the DFS stack at the moment the budget tripped (and can
			// run to hundreds of thousands of steps on divergent faulted
			// spaces), so it is omitted from the report.
			if steps, ok := check.Witness(err); ok && !errors.Is(err, check.ErrStateBudget) {
				for _, st := range steps {
					out.Witness = append(out.Witness, st.String())
				}
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(out); jerr != nil {
			return jerr
		}
		if err != nil {
			return errNotVerified
		}
		return nil
	}

	if err == nil {
		if plan.Active() {
			fmt.Fprintf(w, "OK: every schedule and every injection point verified.\n")
		} else {
			fmt.Fprintf(w, "OK: every schedule verified.\n")
		}
		fmt.Fprintf(w, "states explored:  %d\n", rep.StatesVisited)
		fmt.Fprintf(w, "terminal states:  %d\n", rep.TerminalStates)
		fmt.Fprintf(w, "max depth:        %d events\n", rep.MaxDepth)
		if plan.Active() {
			printFaultCensus(w, frep)
		}
		if rep.TerminalStates == 1 {
			fmt.Fprintln(w, "the instance is confluent: one terminal state across all schedules.")
		}
		return nil
	}

	if errors.Is(err, check.ErrDepthBound) {
		fmt.Fprintf(w, "exploration stopped after %d states visited: %v\n", rep.StatesVisited, err)
		if plan.Active() {
			printFaultCensus(w, frep)
		}
		fmt.Fprintln(w, "some schedule is deeper than the explorer's recursion bound; -max-states cannot widen it.")
		return errNotVerified
	}
	if errors.Is(err, check.ErrStateBudget) {
		fmt.Fprintf(w, "state budget exhausted after %d states visited.\n", rep.StatesVisited)
		if plan.Active() {
			printFaultCensus(w, frep)
			fmt.Fprintln(w, "the faulted space may be infinite (dup, spurious, and restart add pulses);")
			fmt.Fprintln(w, "the census above covers the canonical bounded prefix. Raise -max-states to widen it.")
		} else {
			fmt.Fprintf(w, "the instance is larger than -max-states allows; raise the flag to keep going.\n")
		}
		return errNotVerified
	}

	fmt.Fprintf(w, "VIOLATION: %v\n\n", err)
	steps, _ := check.Witness(err)
	fmt.Fprintf(w, "witness schedule (%d steps):\n", len(steps))
	for i, st := range steps {
		fmt.Fprintf(w, "  %3d. %s\n", i+1, st)
	}
	for _, st := range steps {
		if st.Fault != 0 {
			// The simulator replays scheduler steps only; a faulted witness
			// documents the failing injection but cannot be re-executed.
			fmt.Fprintln(w, "\nwitness contains fault injections; replay is not available.")
			return errNotVerified
		}
	}
	fmt.Fprintln(w, "\nreplaying the witness with a trace attached:")
	rec := &trace.Recorder{}
	res, rerr := check.Replay(cfg, steps, rec)
	fmt.Fprint(w, rec.String())
	switch {
	case rerr != nil:
		// A step-level violation (machine fault, quiescent-termination
		// breach) fired during the replay itself.
		fmt.Fprintf(w, "replay reproduced the violation: %v\n", rerr)
	default:
		// The witness leads to a bad TERMINAL state; re-evaluate the
		// verdict on the replayed outcome.
		final := check.Final{
			Statuses:  res.Statuses,
			Leaders:   res.Leaders,
			Sent:      res.Sent,
			Quiescent: res.Quiescent,
		}
		if cerr := cfg.Check(final); cerr != nil {
			fmt.Fprintf(w, "replay reproduced the terminal-state violation: %v\n", cerr)
		} else {
			fmt.Fprintln(w, "replay did not reproduce the violation (nondeterministic machine?)")
		}
	}
	return errNotVerified
}

// printFaultCensus renders the fault-aware counters of a report.
func printFaultCensus(w io.Writer, frep check.FaultReport) {
	fmt.Fprintf(w, "injection edges:  %d\n", frep.InjectionEdges)
	fmt.Fprintf(w, "violation edges:  %d (faulted paths that tripped a step invariant)\n", frep.ViolationEdges)
	fmt.Fprintf(w, "faulted terminals: %d clean / %d degraded / %d stalled\n",
		frep.CleanTerminals, frep.DegradedTerminals, frep.StalledTerminals)
}
