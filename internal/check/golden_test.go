package check_test

import (
	"errors"
	"fmt"
	"testing"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/ring"
)

// alg3Config builds the exploration cmd/modelcheck runs for -algo alg3:
// successor-scheme Algorithm 3 on the ring flips describes, asserting the
// unique-max leader and Theorem 2's pulse count at every terminal state.
func alg3Config(t *testing.T, ids []uint64, flips []bool) check.Config {
	t.Helper()
	topo, err := ring.NonOriented(flips)
	if err != nil {
		t.Fatal(err)
	}
	maxIdx, _ := ring.MaxIndex(ids)
	wantSent := core.PredictedAlg3Pulses(len(ids), ring.MaxID(ids), core.SchemeSuccessor)
	return check.Config{
		Topo: topo,
		NewMachines: func() ([]node.PulseMachine, error) {
			return core.Alg3Machines(len(ids), ids, core.SchemeSuccessor)
		},
		Check: func(f check.Final) error {
			if len(f.Leaders) != 1 || f.Leaders[0] != maxIdx {
				return fmt.Errorf("leaders %v, want [%d]", f.Leaders, maxIdx)
			}
			if f.Sent != wantSent {
				return fmt.Errorf("sent %d, want %d", f.Sent, wantSent)
			}
			return nil
		},
	}
}

// resampleConfig is TestExhaustiveAlg3Resample's instance: the randomized
// machine of Proposition 19 on colliding small IDs.
func resampleConfig(t *testing.T) check.Config {
	t.Helper()
	ids := []uint64{2, 6, 2}
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	wantSent := core.PredictedAlg3Pulses(3, 6, core.SchemeSuccessor)
	return check.Config{
		Topo:      topo,
		MaxStates: 1 << 23,
		NewMachines: func() ([]node.PulseMachine, error) {
			return core.Alg3ResampleMachines(3, ids, core.SchemeSuccessor, 12345)
		},
		Check: func(f check.Final) error {
			if f.Sent != wantSent {
				return fmt.Errorf("sent %d, want %d", f.Sent, wantSent)
			}
			if len(f.Leaders) != 1 || f.Leaders[0] != 1 {
				return fmt.Errorf("leaders %v", f.Leaders)
			}
			return nil
		},
	}
}

// pinnedCase is one exploration with its exact expected outcome; an
// active plan runs it through ExhaustiveFaults.
type pinnedCase struct {
	name    string
	cfg     func(*testing.T) check.Config
	plan    fault.Plan
	want    check.FaultReport
	wantErr error
}

// TestPinnedReports pins the exact report — every counter — and the error
// class of a table of explorations. The memo key decides which states
// merge, so a key that drops a field (or a fingerprint that merges two
// keys) changes these numbers even where every verdict still passes. The
// goldens predate the snapshot memo key: they were produced when every
// machine had a separate hand-written key encoding, so they also certify
// that the snapshot merges exactly the states that encoding merged. Each
// row runs under both the fingerprint and the full-key memo.
func TestPinnedReports(t *testing.T) {
	oneClass := func(cl fault.Class) fault.Plan { return fault.Plan{Classes: fault.NewSet(cl), Budget: 1} }
	capped := func(cfg check.Config) check.Config { cfg.MaxStates = 20000; return cfg }
	cases := []pinnedCase{
		// The cmd/modelcheck instances of the Makefile smokes and the docs.
		{name: "alg1 4,1,3,2",
			cfg:  func(t *testing.T) check.Config { return alg1Config(t, []uint64{4, 1, 3, 2}) },
			want: check.FaultReport{Report: check.Report{StatesVisited: 58, TerminalStates: 1, MaxDepth: 16}}},
		{name: "alg1 2,2,1",
			cfg:  func(t *testing.T) check.Config { return alg1Config(t, []uint64{2, 2, 1}) },
			want: check.FaultReport{Report: check.Report{StatesVisited: 15, TerminalStates: 1, MaxDepth: 6}}},
		{name: "alg2 5,1,4,2",
			cfg:  func(t *testing.T) check.Config { return alg2Config(t, []uint64{5, 1, 4, 2}, false) },
			want: check.FaultReport{Report: check.Report{StatesVisited: 163, TerminalStates: 1, MaxDepth: 44}}},
		{name: "alg2 2,1 explore-inits",
			cfg:  func(t *testing.T) check.Config { return alg2Config(t, []uint64{2, 1}, true) },
			want: check.FaultReport{Report: check.Report{StatesVisited: 16, TerminalStates: 1, MaxDepth: 12}}},
		{name: "alg3 3,1,2 flips 0,1,0",
			cfg:  func(t *testing.T) check.Config { return alg3Config(t, []uint64{3, 1, 2}, []bool{false, true, false}) },
			want: check.FaultReport{Report: check.Report{StatesVisited: 550, TerminalStates: 1, MaxDepth: 21}}},
		{name: "alg2-unguarded 1,3",
			cfg: func(t *testing.T) check.Config {
				cfg := unguardedConfig(t, []uint64{1, 3})
				cfg.Check = alg2Config(t, []uint64{1, 3}, false).Check
				return cfg
			},
			want:    check.FaultReport{Report: check.Report{StatesVisited: 19, TerminalStates: 2, MaxDepth: 14}},
			wantErr: check.ErrViolation},
		{name: "alg2 3,1,2 loss,crash,corrupt",
			cfg:  func(t *testing.T) check.Config { return alg2Config(t, []uint64{3, 1, 2}, false) },
			plan: fault.Plan{Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt), Budget: 1},
			want: check.FaultReport{Report: check.Report{StatesVisited: 1677, TerminalStates: 74, MaxDepth: 22},
				InjectionEdges: 1189, ViolationEdges: 102, CleanTerminals: 26, DegradedTerminals: 21, StalledTerminals: 26}},
		{name: "alg2 3,1,2 dup capped",
			cfg:  func(t *testing.T) check.Config { return capped(alg2Config(t, []uint64{3, 1, 2}, false)) },
			plan: oneClass(fault.Dup),
			want: check.FaultReport{Report: check.Report{StatesVisited: 20000, TerminalStates: 1, MaxDepth: 19915},
				InjectionEdges: 20, ViolationEdges: 8},
			wantErr: check.ErrStateBudget},
		{name: "alg1 2,1,2 corrupt budget 2",
			cfg:  func(t *testing.T) check.Config { return alg1Config(t, []uint64{2, 1, 2}) },
			plan: fault.Plan{Classes: fault.NewSet(fault.Corrupt), Budget: 2},
			want: check.FaultReport{Report: check.Report{StatesVisited: 23287, TerminalStates: 2073, MaxDepth: 8},
				InjectionEdges: 14952, CleanTerminals: 982, DegradedTerminals: 1090}},
		{name: "alg3 2,1 flips 0,1 all capped",
			cfg: func(t *testing.T) check.Config {
				return capped(alg3Config(t, []uint64{2, 1}, []bool{false, true}))
			},
			plan: fault.Plan{Classes: fault.AllClasses, Budget: 1},
			want: check.FaultReport{Report: check.Report{StatesVisited: 20000, TerminalStates: 1, MaxDepth: 19999},
				InjectionEdges: 1},
			wantErr: check.ErrStateBudget},
		{name: "alg2 2,3,1 windowed explore-inits",
			cfg:  func(t *testing.T) check.Config { return alg2Config(t, []uint64{2, 3, 1}, true) },
			plan: fault.Plan{Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt), Budget: 1, Window: 1},
			want: check.FaultReport{Report: check.Report{StatesVisited: 1154, TerminalStates: 31, MaxDepth: 25},
				InjectionEdges: 282, ViolationEdges: 27, CleanTerminals: 18, DegradedTerminals: 6, StalledTerminals: 6}},
		{name: "alg3-resample 2,6,2",
			cfg:  resampleConfig,
			want: check.FaultReport{Report: check.Report{StatesVisited: 2993, TerminalStates: 21, MaxDepth: 39}}},
	}
	// Each fault class on its own, on TestFaultReportsDeterministic's
	// instance; the pulse-adding classes diverge and stop on the budget.
	for _, tc := range []struct {
		cl      fault.Class
		want    check.FaultReport
		wantErr error
	}{
		{cl: fault.Loss, want: check.FaultReport{Report: check.Report{StatesVisited: 125, TerminalStates: 13, MaxDepth: 21},
			InjectionEdges: 82, DegradedTerminals: 8, StalledTerminals: 4}},
		{cl: fault.Dup, want: check.FaultReport{Report: check.Report{StatesVisited: 20000, TerminalStates: 1, MaxDepth: 19884},
			InjectionEdges: 30, ViolationEdges: 8}, wantErr: check.ErrStateBudget},
		{cl: fault.Spurious, want: check.FaultReport{Report: check.Report{StatesVisited: 20000, TerminalStates: 1, MaxDepth: 19988},
			InjectionEdges: 7, ViolationEdges: 9}, wantErr: check.ErrStateBudget},
		{cl: fault.Crash, want: check.FaultReport{Report: check.Report{StatesVisited: 166, TerminalStates: 23, MaxDepth: 21},
			InjectionEdges: 123, StalledTerminals: 22}},
		{cl: fault.Restart, want: check.FaultReport{Report: check.Report{StatesVisited: 20000, TerminalStates: 9, MaxDepth: 19310},
			InjectionEdges: 65, ViolationEdges: 30, DegradedTerminals: 8}, wantErr: check.ErrStateBudget},
		{cl: fault.Corrupt, want: check.FaultReport{Report: check.Report{StatesVisited: 1472, TerminalStates: 40, MaxDepth: 22},
			InjectionEdges: 984, ViolationEdges: 102, CleanTerminals: 26, DegradedTerminals: 13}},
	} {
		cases = append(cases, pinnedCase{
			name:    "alg2 2,3,1 " + tc.cl.String(),
			cfg:     func(t *testing.T) check.Config { return capped(alg2Config(t, []uint64{2, 3, 1}, false)) },
			plan:    oneClass(tc.cl),
			want:    tc.want,
			wantErr: tc.wantErr,
		})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, memo := range []check.MemoMode{check.MemoFingerprint, check.MemoFullKeys} {
				cfg := tc.cfg(t)
				cfg.Memo = memo
				var got check.FaultReport
				var err error
				if tc.plan.Active() {
					got, err = check.ExhaustiveFaults(cfg, tc.plan)
				} else {
					got.Report, err = check.Exhaustive(cfg)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Errorf("%v: err = %v, want %v", memo, err, tc.wantErr)
				}
				if got != tc.want {
					t.Errorf("%v: report\n got %#v\nwant %#v", memo, got, tc.want)
				}
			}
		})
	}
}
