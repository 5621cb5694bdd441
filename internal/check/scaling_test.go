package check_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// diffCase is one exploration config the equivalence tests run under
// every memo mode and against the clone engine's recorded outcomes. Error
// cases included: they must agree on the failing schedule too.
type diffCase struct {
	name string
	cfg  check.Config
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	budget := alg2Config(t, []uint64{1, 2, 3}, false)
	budget.MaxStates = 5
	// One state short of the instance's 2,993: the exploration stops on
	// its last state, with every terminal already counted.
	resampleBudget := resampleConfig(t)
	resampleBudget.MaxStates = 2992
	return []diffCase{
		{"alg2-312", alg2Config(t, []uint64{3, 1, 2}, false)},
		{"alg2-231-inits", alg2Config(t, []uint64{2, 3, 1}, true)},
		{"alg1-221", alg1Diff(t, []uint64{2, 2, 1})},
		{"alg3-21", alg3Diff(t, []uint64{2, 1})},
		{"unguarded-13", unguardedConfig(t, []uint64{1, 3})},
		{"unguarded-132", unguardedConfig(t, []uint64{1, 3, 2})},
		{"budget", budget},
		{"resample", resampleConfig(t)}, // its snapshot carries PRNG state
		{"resample-budget", resampleBudget},
	}
}

func alg1Diff(t *testing.T, ids []uint64) check.Config {
	t.Helper()
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	return check.Config{
		Topo:        topo,
		NewMachines: func() ([]node.PulseMachine, error) { return core.Alg1Machines(topo, ids) },
	}
}

func alg3Diff(t *testing.T, ids []uint64) check.Config {
	t.Helper()
	topo, err := ring.NonOriented([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	return check.Config{
		Topo: topo,
		NewMachines: func() ([]node.PulseMachine, error) {
			return core.Alg3Machines(len(ids), ids, core.SchemeDoubled)
		},
	}
}

// outcome flattens an exploration's result for equality comparison:
// report counters, error string, and the full witness schedule.
func outcome(rep check.Report, err error) string {
	s := fmt.Sprintf("rep=%+v", rep)
	if err != nil {
		s += " err=" + err.Error()
		if steps, ok := check.Witness(err); ok {
			s += fmt.Sprintf(" witness=%v", steps)
		}
	}
	return s
}

// cloneOutcomes holds each diffCase's outcome under full-key memoization as the
// clone engine — the pre-undo explorer that deep-copied the machine slice
// per branch — produced it. They were recorded while that engine and the
// undo engine still ran side by side and agreed on every case, so they
// keep its checks after its removal.
var cloneOutcomes = map[string]string{
	"alg2-312":       "rep={StatesVisited:43 TerminalStates:1 MaxDepth:21}",
	"alg2-231-inits": "rep={StatesVisited:53 TerminalStates:1 MaxDepth:24}",
	"alg1-221":       "rep={StatesVisited:15 TerminalStates:1 MaxDepth:6}",
	"alg3-21":        "rep={StatesVisited:90 TerminalStates:1 MaxDepth:14}",
	"unguarded-13": "rep={StatesVisited:36 TerminalStates:3 MaxDepth:14}" +
		" err=check: protocol violation: node 1 terminated with queued pulses\n" +
		"witness schedule (8 steps; replay with check.Replay) witness=[init 0 init 1" +
		" deliver ch0 (node 0 port 0) deliver ch2 (node 1 port 0) deliver ch3 (node 1 port 1)" +
		" deliver ch1 (node 0 port 1) deliver ch0 (node 0 port 0) deliver ch3 (node 1 port 1)]",
	"unguarded-132": "rep={StatesVisited:30 TerminalStates:1 MaxDepth:15}" +
		" err=check: protocol violation: node 0 sent toward terminated node 1\n" +
		"witness schedule (18 steps; replay with check.Replay) witness=[init 0 init 1 init 2" +
		" deliver ch0 (node 0 port 0) deliver ch2 (node 1 port 0) deliver ch4 (node 2 port 0)" +
		" deliver ch0 (node 0 port 0) deliver ch2 (node 1 port 0) deliver ch4 (node 2 port 0)" +
		" deliver ch3 (node 1 port 1) deliver ch1 (node 0 port 1) deliver ch5 (node 2 port 1)" +
		" deliver ch3 (node 1 port 1) deliver ch1 (node 0 port 1) deliver ch5 (node 2 port 1)" +
		" deliver ch3 (node 1 port 1) deliver ch4 (node 2 port 0) deliver ch0 (node 0 port 0)]",
	"budget": "rep={StatesVisited:5 TerminalStates:0 MaxDepth:4}" +
		" err=check: state budget exceeded (5)\n" +
		"witness schedule (8 steps; replay with check.Replay) witness=[init 0 init 1 init 2" +
		" deliver ch0 (node 0 port 0) deliver ch2 (node 1 port 0) deliver ch4 (node 2 port 0)" +
		" deliver ch0 (node 0 port 0) deliver ch2 (node 1 port 0)]",
	"resample": "rep={StatesVisited:2993 TerminalStates:21 MaxDepth:39}",
	"resample-budget": "rep={StatesVisited:2992 TerminalStates:21 MaxDepth:39}" +
		" err=check: state budget exceeded (2992)\n" +
		"witness schedule (4 steps; replay with check.Replay) witness=[init 0 init 1 init 2" +
		" deliver ch5 (node 2 port 1)]",
}

// TestUndoMatchesClone: the undo engine must reproduce the clone engine's
// recorded outcomes (cloneOutcomes) — same states, terminals, depth,
// verdict, and witness — on passing and failing explorations alike.
func TestUndoMatchesClone(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := cloneOutcomes[c.name]
			if !ok {
				t.Fatalf("no recorded clone outcome for %s", c.name)
			}
			cfg := c.cfg
			cfg.Memo = check.MemoAudit
			if got := outcome(check.Exhaustive(cfg)); got != want {
				t.Errorf("undo engine diverged from the clone engine's outcome:\n undo:  %s\n clone: %s", got, want)
			}
		})
	}
}

// TestFingerprintMatchesFullKeys: the fingerprint memo must not change any
// exploration outcome against MemoAudit, which keeps every full key (no
// collisions on these instances — the audit itself certifies that).
func TestFingerprintMatchesFullKeys(t *testing.T) {
	for _, c := range diffCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			exact := c.cfg
			exact.Memo = check.MemoAudit
			exactRep, exactErr := check.Exhaustive(exact)

			fp := c.cfg
			fp.Memo = check.MemoFingerprint
			fpRep, fpErr := check.Exhaustive(fp)
			if got, want := outcome(fpRep, fpErr), outcome(exactRep, exactErr); got != want {
				t.Errorf("fingerprint memo diverged from full keys:\n fingerprint: %s\n exact:       %s", got, want)
			}
		})
	}
}

// deafMachine sends one pulse at init but never accepts delivery: every
// schedule stalls with pulses queued toward a never-ready port.
type deafMachine struct{ sent bool }

func (d *deafMachine) Init(e node.PulseEmitter) {
	d.sent = true
	e.Send(pulse.Port1, pulse.Pulse{})
}
func (d *deafMachine) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (d *deafMachine) Ready(pulse.Port) bool                            { return false }
func (d *deafMachine) Status() node.Status                              { return node.Status{} }
func (d *deafMachine) SnapshotTo(buf []byte) []byte {
	if d.sent {
		return append(buf, 1)
	}
	return append(buf, 0)
}
func (d *deafMachine) Restore(snap []byte) { d.sent = snap[0] != 0 }

func deafConfig(t *testing.T) check.Config {
	t.Helper()
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	return check.Config{
		Topo:         topo,
		ExploreInits: true, // init steps run through the explorer, not the root builder
		NewMachines: func() ([]node.PulseMachine, error) {
			return []node.PulseMachine{&deafMachine{}, &deafMachine{}}, nil
		},
	}
}

// faultyInit is a deafMachine that reports a machine fault once it has
// initialized.
type faultyInit struct{ deafMachine }

func (f *faultyInit) Status() node.Status {
	if f.sent {
		return node.Status{Err: errors.New("init fault")}
	}
	return node.Status{}
}

// TestInitPrefixViolation: a violation inside the upfront init prefix
// (ExploreInits false) aborts before any exploration, with the prefix up
// to the failing init as its witness.
func TestInitPrefixViolation(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := check.Exhaustive(check.Config{
		Topo: topo,
		NewMachines: func() ([]node.PulseMachine, error) {
			return []node.PulseMachine{&faultyInit{}, &faultyInit{}}, nil
		},
	})
	if !errors.Is(err, check.ErrViolation) || !strings.Contains(err.Error(), "node 0: init fault") {
		t.Fatalf("err = %v, want node 0's init fault as ErrViolation", err)
	}
	if steps, ok := check.Witness(err); !ok || fmt.Sprint(steps) != "[init 0]" {
		t.Errorf("witness %v (attached %v), want [init 0]", steps, ok)
	}
	if rep != (check.Report{}) {
		t.Errorf("report %+v, want zero", rep)
	}
}

// TestStalledWitnessReplay: a stall is reported as ErrStalled with a
// witness whose replay runs clean but ends non-quiescent — the stall is a
// property of the terminal state, not a machine fault.
func TestStalledWitnessReplay(t *testing.T) {
	cfg := deafConfig(t)
	_, err := check.Exhaustive(cfg)
	if !errors.Is(err, check.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	steps, ok := check.Witness(err)
	if !ok || len(steps) == 0 {
		t.Fatalf("no witness on %v", err)
	}
	res, replayErr := check.Replay(cfg, steps)
	if replayErr != nil {
		t.Fatalf("stall witness replay errored: %v", replayErr)
	}
	if res.Quiescent {
		t.Error("stalled schedule replayed to a quiescent state")
	}
}

// TestStateBudgetWitnessReplay: the budget error carries the schedule that
// reached the budget-tripping state, and that schedule replays clean.
func TestStateBudgetWitnessReplay(t *testing.T) {
	cfg := alg2Config(t, []uint64{1, 2, 3}, false)
	cfg.MaxStates = 3
	_, err := check.Exhaustive(cfg)
	if !errors.Is(err, check.ErrStateBudget) {
		t.Fatalf("err = %v, want ErrStateBudget", err)
	}
	steps, ok := check.Witness(err)
	if !ok {
		t.Fatalf("no witness on %v", err)
	}
	if _, replayErr := check.Replay(cfg, steps); replayErr != nil {
		t.Fatalf("budget witness replay errored: %v", replayErr)
	}
}

// forever is a one-node ring that forwards every pulse back to itself
// and counts it: a single schedule that never ends, through ever-new
// states.
type forever struct{ fwd uint64 }

func (f *forever) Init(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
func (f *forever) OnMsg(_ pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	f.fwd++
	e.Send(pulse.Port1, pulse.Pulse{})
}
func (f *forever) Ready(pulse.Port) bool        { return true }
func (f *forever) Status() node.Status          { return node.Status{} }
func (f *forever) SnapshotTo(buf []byte) []byte { return node.AppendKey64(buf, f.fwd) }
func (f *forever) Restore(snap []byte)          { f.fwd = node.Key64(snap) }

// TestDepthBound: a schedule deeper than the explorer's recursion bound
// (2^20 steps) ends in ErrDepthBound — an ErrStateBudget carrying the
// witness and naming the depth — well inside the default state budget.
// Reaching the bound runs the explorer 2^20 frames deep, so a recursive
// frame that grows past the goroutine stack's share (512 MB / 2^20 =
// 512 B) turns this test into a stack-overflow crash.
func TestDepthBound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("a 2^20-frame stack is too large to shadow under the race detector")
	}
	const bound = 1 << 20
	topo, err := ring.Oriented(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := check.Exhaustive(check.Config{
		Topo:        topo,
		NewMachines: func() ([]node.PulseMachine, error) { return []node.PulseMachine{&forever{}}, nil },
	})
	if !errors.Is(err, check.ErrDepthBound) || !errors.Is(err, check.ErrStateBudget) {
		t.Fatalf("err = %v, want ErrDepthBound wrapping ErrStateBudget", err)
	}
	if want := fmt.Sprintf("depth %d", bound+1); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	// The witness is the init step plus one delivery per level.
	if steps, ok := check.Witness(err); !ok || len(steps) != bound+2 {
		t.Errorf("witness of %d steps (attached %v), want %d", len(steps), ok, bound+2)
	}
	if want := (check.Report{StatesVisited: bound + 1, MaxDepth: bound}); rep != want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
}

// TestViolationWitnessReplay: the unguarded ablation's violation witness
// reproduces the violation under replay (round-trip for ErrViolation).
func TestViolationWitnessReplay(t *testing.T) {
	cfg := unguardedConfig(t, []uint64{1, 3})
	_, err := check.Exhaustive(cfg)
	if !errors.Is(err, check.ErrViolation) {
		t.Fatalf("err = %v, want ErrViolation", err)
	}
	steps, ok := check.Witness(err)
	if !ok {
		t.Fatal("no witness")
	}
	if _, replayErr := check.Replay(cfg, steps); replayErr == nil {
		t.Fatal("violation witness replayed clean")
	}
}

// TestScalingValidation covers the new config-validation paths.
func TestScalingValidation(t *testing.T) {
	cfg := alg2Config(t, []uint64{1, 2}, false)

	bad := cfg
	bad.MaxStates = -1
	if _, err := check.Exhaustive(bad); err == nil {
		t.Error("negative MaxStates accepted")
	}

	bad = cfg
	bad.Memo = check.MemoMode(99)
	if _, err := check.Exhaustive(bad); err == nil {
		t.Error("unknown memo mode accepted")
	}
}

// TestUndoAllocations asserts the point of the undo engine: it explores
// in a near-constant number of allocations (root construction plus arena
// growth), not a number that grows with the states visited.
func TestUndoAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := check.Exhaustive(alg2Config(t, []uint64{3, 1, 2}, false)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/run: %.0f", allocs)
	if allocs > 64 {
		t.Errorf("undo engine allocates %.0f times per exploration, want <= 64", allocs)
	}
}
