package check_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/ring"
)

// alg1Config builds an exhaustive exploration of Algorithm 1, asserting
// Corollary 13 (max-ID leaders, n·ID_max pulses) at every terminal state.
func alg1Config(t *testing.T, ids []uint64) check.Config {
	t.Helper()
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	idMax := ring.MaxID(ids)
	var wantLeaders []int
	for i, id := range ids {
		if id == idMax {
			wantLeaders = append(wantLeaders, i)
		}
	}
	return check.Config{
		Topo:        topo,
		NewMachines: func() ([]node.PulseMachine, error) { return core.Alg1Machines(topo, ids) },
		Check: func(f check.Final) error {
			if fmt.Sprint(f.Leaders) != fmt.Sprint(wantLeaders) {
				return fmt.Errorf("leaders %v, want %v", f.Leaders, wantLeaders)
			}
			if want := core.PredictedAlg1Pulses(len(ids), idMax); f.Sent != want {
				return fmt.Errorf("sent %d, want %d", f.Sent, want)
			}
			return nil
		},
	}
}

// TestZeroBudgetPlanMatchesFaultless pins the differential the tentpole
// demands: an inactive fault plan reproduces the faultless checker's
// report exactly — same states, terminals, depth, verdict — across both
// engines and worker widths, with every fault counter zero.
func TestZeroBudgetPlanMatchesFaultless(t *testing.T) {
	plans := []fault.Plan{
		{},
		{Budget: 0, Classes: fault.AllClasses}, // budget gates classes
		{Budget: 3, Classes: 0},                // classes gate budget
		{Budget: 1, Classes: fault.NewSet(fault.Loss)}, // active — must differ
	}
	for _, mk := range []struct {
		name string
		cfg  func(t *testing.T) check.Config
	}{
		{"alg1", func(t *testing.T) check.Config { return alg1Config(t, []uint64{3, 1, 2}) }},
		{"alg2", func(t *testing.T) check.Config { return alg2Config(t, []uint64{2, 3, 1}, false) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			base, err := check.Exhaustive(mk.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			for i, plan := range plans {
				for _, workers := range []int{1, 4} {
					cfg := mk.cfg(t)
					cfg.Workers = workers
					rep, err := check.ExhaustiveFaults(cfg, plan)
					if err != nil {
						t.Fatalf("plan %d workers %d: %v", i, workers, err)
					}
					if plan.Active() {
						if rep.StatesVisited <= base.StatesVisited || rep.InjectionEdges == 0 {
							t.Errorf("active plan %d: %d states (base %d), %d injections — expected strictly more work",
								i, rep.StatesVisited, base.StatesVisited, rep.InjectionEdges)
						}
						continue
					}
					if rep.Report != base {
						t.Errorf("plan %d workers %d: report %+v, want faultless %+v", i, workers, rep.Report, base)
					}
					if rep.InjectionEdges+rep.ViolationEdges+rep.CleanTerminals+rep.DegradedTerminals+rep.StalledTerminals != 0 {
						t.Errorf("plan %d workers %d: nonzero fault counters %+v", i, workers, rep)
					}
				}
			}
		})
	}
}

// TestFaultReportsDeterministic asserts the fault-aware explorer's
// determinism contract: the full FaultReport is identical at every worker
// width, for every fault class (TestPinnedReports pins each class's
// report on this instance). Classes that
// add pulses to the ring (Dup, Spurious, Restart) have divergent state
// spaces and abort on the state budget — even then every width returns
// the byte-identical canonical partial report, because the parallel
// engine discards its run and reruns the sequential canonical DFS on any
// failure.
func TestFaultReportsDeterministic(t *testing.T) {
	divergent := map[fault.Class]bool{fault.Dup: true, fault.Spurious: true, fault.Restart: true}
	classes := []fault.Class{fault.Loss, fault.Dup, fault.Spurious, fault.Crash, fault.Restart, fault.Corrupt}
	for _, cl := range classes {
		cl := cl
		t.Run(cl.String(), func(t *testing.T) {
			plan := fault.Plan{Classes: fault.NewSet(cl), Budget: 1}
			mkCfg := func() check.Config {
				cfg := alg2Config(t, []uint64{2, 3, 1}, false)
				cfg.MaxStates = 20000
				return cfg
			}

			ref, refErr := check.ExhaustiveFaults(mkCfg(), plan)
			if divergent[cl] {
				if !errors.Is(refErr, check.ErrStateBudget) {
					t.Fatalf("err = %v, want ErrStateBudget (pulse-adding classes diverge)", refErr)
				}
			} else if refErr != nil {
				t.Fatal(refErr)
			} else if ref.InjectionEdges == 0 {
				t.Fatalf("no injections explored for %v", cl)
			}
			for _, workers := range []int{2, 4, 7} {
				cfg := mkCfg()
				cfg.Workers = workers
				rep, err := check.ExhaustiveFaults(cfg, plan)
				if !errors.Is(err, refErr) && (err == nil) != (refErr == nil) {
					t.Fatalf("workers %d: err = %v, want %v", workers, err, refErr)
				}
				if rep != ref {
					t.Errorf("workers %d: report %+v, want %+v", workers, rep, ref)
				}
			}
			t.Logf("%v: %d states, inj %d, viol %d, clean %d, degraded %d, stalled %d (err=%v)",
				cl, ref.StatesVisited, ref.InjectionEdges, ref.ViolationEdges,
				ref.CleanTerminals, ref.DegradedTerminals, ref.StalledTerminals, refErr)
		})
	}
}

// TestFaultFingerprintMatchesFullKeys is the fault-mode counterpart of
// TestFingerprintMatchesFullKeys: on the TestFaultReportsDeterministic
// instance, every fault class (and one windowed plan) explores
// identically under the fingerprint, full-key and audit memos — same
// report, same error, same witness. Divergent classes must hit the state
// budget at the same point, which the identical partial reports and
// witnesses pin.
func TestFaultFingerprintMatchesFullKeys(t *testing.T) {
	type planCase struct {
		name string
		plan fault.Plan
	}
	var plans []planCase
	for _, cl := range []fault.Class{fault.Loss, fault.Dup, fault.Spurious, fault.Crash, fault.Restart, fault.Corrupt} {
		plans = append(plans, planCase{cl.String(), fault.Plan{Classes: fault.NewSet(cl), Budget: 1}})
	}
	plans = append(plans, planCase{"windowed", fault.Plan{Classes: fault.AllClasses, Budget: 1, Window: 1}})
	for _, pc := range plans {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			run := func(memo check.MemoMode) (check.FaultReport, error) {
				cfg := alg2Config(t, []uint64{2, 3, 1}, false)
				cfg.MaxStates = 20000
				cfg.Memo = memo
				return check.ExhaustiveFaults(cfg, pc.plan)
			}
			exactRep, exactErr := run(check.MemoFullKeys)
			want := outcome(exactRep.Report, exactErr) + fmt.Sprintf(" fault=%+v", exactRep)
			for _, memo := range []check.MemoMode{check.MemoFingerprint, check.MemoAudit} {
				rep, err := run(memo)
				if got := outcome(rep.Report, err) + fmt.Sprintf(" fault=%+v", rep); got != want {
					t.Errorf("%v memo diverged from full keys:\n %v:   %s\n exact: %s", memo, memo, got, want)
				}
				if errors.Is(err, check.ErrStateBudget) != errors.Is(exactErr, check.ErrStateBudget) {
					t.Errorf("%v memo: err = %v, full keys: %v", memo, err, exactErr)
				}
			}
		})
	}
}

// TestAlg2CrashStrandsPulses: a fail-stop node under Algorithm 2 leaves
// its queued pulses undeliverable on some schedules — every crash is
// eventually visible as a stalled or degraded terminal, never as a clean
// one (the quiescently terminating algorithm cannot mask a fail-stop).
func TestAlg2CrashStrandsPulses(t *testing.T) {
	rep, err := check.ExhaustiveFaults(alg2Config(t, []uint64{2, 3, 1}, false),
		fault.Plan{Classes: fault.NewSet(fault.Crash), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StalledTerminals == 0 {
		t.Error("no stalled terminals — a crash should strand pulses on some schedule")
	}
	if rep.CleanTerminals != 0 {
		t.Errorf("%d clean terminals — a crashed node can never look like a clean run", rep.CleanTerminals)
	}
}

// TestAlg1DupDiverges: duplicating one pulse under Algorithm 1 makes the
// state space infinite — conservation gives the ring n+1 pulses against n
// absorption slots, so one pulse circulates forever and the relay counters
// grow without bound. The exploration must hit the state budget rather
// than terminate.
func TestAlg1DupDiverges(t *testing.T) {
	cfg := alg1Config(t, []uint64{2, 1, 2})
	cfg.MaxStates = 30000
	_, err := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.NewSet(fault.Dup), Budget: 1})
	if !errors.Is(err, check.ErrStateBudget) {
		t.Fatalf("err = %v, want ErrStateBudget (divergent state space)", err)
	}
}

// TestAlg1LossQuiesces: losing a pulse under Algorithm 1 keeps the state
// space finite (fewer pulses than absorption slots), and the ring still
// quiesces on every schedule — but with a degraded outcome (fewer than
// n·ID_max pulses, possibly wrong leaders), never a stall.
func TestAlg1LossQuiesces(t *testing.T) {
	rep, err := check.ExhaustiveFaults(alg1Config(t, []uint64{2, 1, 2}),
		fault.Plan{Classes: fault.NewSet(fault.Loss), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StalledTerminals != 0 {
		t.Errorf("%d stalled terminals — alg1 minus a pulse must still quiesce", rep.StalledTerminals)
	}
	if rep.DegradedTerminals == 0 {
		t.Error("no degraded terminals — losing a pulse must break the pulse-count guarantee somewhere")
	}
	t.Logf("loss: %d states, %d injections, %d degraded, %d clean",
		rep.StatesVisited, rep.InjectionEdges, rep.DegradedTerminals, rep.CleanTerminals)
}

// TestWindowBoundsPositions: a windowed plan admits strictly fewer
// injection positions than an unbounded one, and stays deterministic
// across widths.
func TestWindowBoundsPositions(t *testing.T) {
	mk := func() check.Config { return alg2Config(t, []uint64{2, 3, 1}, false) }
	open, err := check.ExhaustiveFaults(mk(), fault.Plan{Classes: fault.NewSet(fault.Loss), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := check.ExhaustiveFaults(mk(), fault.Plan{Classes: fault.NewSet(fault.Loss), Budget: 1, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.InjectionEdges == 0 || narrow.InjectionEdges >= open.InjectionEdges {
		t.Errorf("window 1: %d injections, unbounded: %d — want 0 < narrow < open",
			narrow.InjectionEdges, open.InjectionEdges)
	}
	cfg := mk()
	cfg.Workers = 4
	par, err := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.NewSet(fault.Loss), Budget: 1, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par != narrow {
		t.Errorf("windowed parallel report %+v, want %+v", par, narrow)
	}
}

// TestCrashThenRestartRevives: with budget for a crash AND a restart, the
// exploration contains paths where the crashed node is revived and the
// ring quiesces again — the checker-side model of the live supervisor's
// healing — alongside the crash-only stalls. The restarted node is
// amnesiac (it re-sends its init pulse and re-relays pulses it already
// counted), so the combined space is infinite and the run is certified up
// to the state budget: the partial census is still canonical (sequential
// DFS order is fixed), so the revived quiescent terminals it contains are
// stable facts about the bounded prefix.
func TestCrashThenRestartRevives(t *testing.T) {
	crashOnly, err := check.ExhaustiveFaults(alg1Config(t, []uint64{2, 1, 2}),
		fault.Plan{Classes: fault.NewSet(fault.Crash), Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if crashOnly.StalledTerminals == 0 {
		t.Error("crash-only: no stalled terminals — a dead node should strand pulses on some schedule")
	}
	cfg := alg1Config(t, []uint64{2, 1, 2})
	cfg.MaxStates = 60000
	healed, err := check.ExhaustiveFaults(cfg,
		fault.Plan{Classes: fault.NewSet(fault.Crash, fault.Restart), Budget: 2})
	if !errors.Is(err, check.ErrStateBudget) {
		t.Fatalf("crash+restart: err = %v, want ErrStateBudget (amnesiac restart diverges)", err)
	}
	if healed.CleanTerminals+healed.DegradedTerminals == 0 {
		t.Error("crash+restart: no quiescent faulted terminals in the bounded prefix — no revival paths found")
	}
	t.Logf("crash-only: %+v", crashOnly)
	t.Logf("crash+restart (bounded): %+v", healed)
}

// TestCorruptOutputExplored: every single-bit output corruption at every
// position is branched by default (eight masks), and the exploration
// classifies each downstream execution rather than aborting.
func TestCorruptOutputExplored(t *testing.T) {
	rep, err := check.ExhaustiveFaults(alg1Config(t, []uint64{2, 1}),
		fault.Plan{Classes: fault.NewSet(fault.Corrupt), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InjectionEdges%8 != 0 || rep.InjectionEdges == 0 {
		t.Errorf("injections %d, want a positive multiple of the 8 default masks", rep.InjectionEdges)
	}
	total := rep.CleanTerminals + rep.DegradedTerminals + rep.StalledTerminals
	if total == 0 {
		t.Error("no faulted terminals classified")
	}
	t.Logf("corrupt: %d injections, %d viol edges, %d clean / %d degraded / %d stalled",
		rep.InjectionEdges, rep.ViolationEdges, rep.CleanTerminals, rep.DegradedTerminals, rep.StalledTerminals)
}

// TestFaultPlanValidation covers plan normalization failures surfaced
// through ExhaustiveFaults.
func TestFaultPlanValidation(t *testing.T) {
	cfg := alg1Config(t, []uint64{2, 1})
	if _, err := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.AllClasses, Budget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.AllClasses, Budget: 1, Window: 1 << 20}); err == nil {
		t.Error("oversized window accepted")
	}
	if _, err := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.NewSet(fault.Corrupt), Budget: 1, CorruptMasks: []byte{0}}); err == nil {
		t.Error("zero corrupt mask accepted")
	}
	if _, err := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.AllClasses, Budget: 1000}); err == nil {
		t.Error("oversized budget accepted")
	}
}

// TestFaultStepRendering pins the witness vocabulary of fault steps and
// that Replay refuses to replay them (the simulator's plane replays
// sampled schedules, not arbitrary injections).
func TestFaultStepRendering(t *testing.T) {
	steps := map[string]check.Step{
		"inject loss ch3 (node 1 port 1)":     {Init: -1, Chan: 3, Fault: fault.Loss},
		"inject spurious ch0 (node 0 port 0)": {Init: -1, Chan: 0, Fault: fault.Spurious},
		"inject crash node 2":                 {Init: 2, Chan: -1, Fault: fault.Crash},
		"inject corrupt node 1 (mask 0x04)":   {Init: 1, Chan: -1, Fault: fault.Corrupt, Mask: 4},
	}
	for want, s := range steps {
		if got := s.String(); got != want {
			t.Errorf("Step%+v.String() = %q, want %q", s, got, want)
		}
	}

	cfg := alg1Config(t, []uint64{2, 1})
	_, err := check.Replay(cfg, []check.Step{
		{Init: 0, Chan: -1}, {Init: 1, Chan: -1},
		{Init: -1, Chan: 1, Fault: fault.Loss},
	})
	if err == nil || !strings.Contains(err.Error(), "fault step") {
		t.Errorf("Replay of a fault step: err = %v, want fault-step refusal", err)
	}
}
