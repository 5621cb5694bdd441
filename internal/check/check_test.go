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
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// alg2Config builds an exhaustive exploration of Algorithm 2 over all
// schedules, asserting Theorem 1 at every terminal state.
func alg2Config(t *testing.T, ids []uint64, exploreInits bool) check.Config {
	t.Helper()
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	wantLeader, _ := ring.MaxIndex(ids)
	wantSent := core.PredictedAlg2Pulses(len(ids), ring.MaxID(ids))
	return check.Config{
		Topo:         topo,
		ExploreInits: exploreInits,
		NewMachines:  func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) },
		Check: func(f check.Final) error {
			if len(f.Leaders) != 1 || f.Leaders[0] != wantLeader {
				return fmt.Errorf("leaders %v, want [%d]", f.Leaders, wantLeader)
			}
			if f.Sent != wantSent {
				return fmt.Errorf("sent %d, want %d", f.Sent, wantSent)
			}
			for k, st := range f.Statuses {
				if !st.Terminated {
					return fmt.Errorf("node %d not terminated", k)
				}
			}
			return nil
		},
	}
}

// TestExhaustiveAlg2 verifies Theorem 1 under EVERY delivery schedule for a
// family of small rings.
func TestExhaustiveAlg2(t *testing.T) {
	cases := [][]uint64{
		{1},
		{2},
		{3},
		{1, 2},
		{2, 1},
		{1, 3},
		{3, 2},
		{1, 2, 3},
		{3, 1, 2},
		{2, 3, 1},
		{4, 1, 2},
	}
	for _, ids := range cases {
		ids := ids
		t.Run(fmt.Sprintf("ids=%v", ids), func(t *testing.T) {
			rep, err := check.Exhaustive(alg2Config(t, ids, false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.TerminalStates == 0 {
				t.Error("no terminal states reached")
			}
			t.Logf("ids=%v: %d states, %d terminal, depth %d",
				ids, rep.StatesVisited, rep.TerminalStates, rep.MaxDepth)
		})
	}
}

// TestExhaustiveAlg2WithInitInterleavings additionally branches over
// wake-up orders (late starters receive pulses before their own init can
// fire — a corner the model explicitly allows).
func TestExhaustiveAlg2WithInitInterleavings(t *testing.T) {
	for _, ids := range [][]uint64{{1, 2}, {2, 1}, {2, 3, 1}} {
		ids := ids
		t.Run(fmt.Sprintf("ids=%v", ids), func(t *testing.T) {
			rep, err := check.Exhaustive(alg2Config(t, ids, true))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("ids=%v: %d states, %d terminal", ids, rep.StatesVisited, rep.TerminalStates)
		})
	}
}

// TestExhaustiveAlg1 verifies the Algorithm 1 stabilization claims under
// every schedule: quiescent terminal states with exactly the max-ID nodes
// leading and exactly n·ID_max pulses — including duplicated maxima
// (Lemma 16).
func TestExhaustiveAlg1(t *testing.T) {
	cases := [][]uint64{
		{1, 2},
		{2, 2},
		{3, 1, 2},
		{2, 2, 1},
		{3, 3, 3},
		{1, 3, 3},
	}
	for _, ids := range cases {
		ids := ids
		t.Run(fmt.Sprintf("ids=%v", ids), func(t *testing.T) {
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
			cfg := check.Config{
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
			rep, err := check.Exhaustive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("ids=%v: %d states", ids, rep.StatesVisited)
		})
	}
}

// TestExhaustiveAlg3 verifies Theorem 2 under every schedule and every
// port assignment of a 2-node ring plus selected 3-node assignments.
func TestExhaustiveAlg3(t *testing.T) {
	type tc struct {
		ids    []uint64
		flips  []bool
		scheme core.IDScheme
	}
	var cases []tc
	for mask := 0; mask < 4; mask++ {
		flips := []bool{mask&1 != 0, mask&2 != 0}
		cases = append(cases,
			tc{[]uint64{1, 2}, flips, core.SchemeSuccessor},
			tc{[]uint64{2, 1}, flips, core.SchemeDoubled},
		)
	}
	cases = append(cases,
		tc{[]uint64{2, 3, 1}, []bool{true, false, true}, core.SchemeSuccessor},
		tc{[]uint64{1, 2, 3}, []bool{false, true, false}, core.SchemeDoubled},
	)
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("ids=%v flips=%v %v", c.ids, c.flips, c.scheme), func(t *testing.T) {
			topo, err := ring.NonOriented(c.flips)
			if err != nil {
				t.Fatal(err)
			}
			wantLeader, _ := ring.MaxIndex(c.ids)
			wantSent := core.PredictedAlg3Pulses(len(c.ids), ring.MaxID(c.ids), c.scheme)
			cfg := check.Config{
				Topo: topo,
				NewMachines: func() ([]node.PulseMachine, error) {
					return core.Alg3Machines(len(c.ids), c.ids, c.scheme)
				},
				Check: func(f check.Final) error {
					if len(f.Leaders) != 1 || f.Leaders[0] != wantLeader {
						return fmt.Errorf("leaders %v, want [%d]", f.Leaders, wantLeader)
					}
					if f.Sent != wantSent {
						return fmt.Errorf("sent %d, want %d", f.Sent, wantSent)
					}
					// Orientation consistency across all nodes.
					var dir pulse.Direction
					for k, st := range f.Statuses {
						if !st.HasOrientation {
							return fmt.Errorf("node %d unoriented", k)
						}
						d := topo.DirectionOf(k, st.CWPort)
						if dir == 0 {
							dir = d
						} else if d != dir {
							return fmt.Errorf("inconsistent orientation at node %d", k)
						}
					}
					return nil
				},
			}
			rep, err := check.Exhaustive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d states, %d terminal", rep.StatesVisited, rep.TerminalStates)
		})
	}
}

// TestExhaustiveAlg3Resample explores the RANDOMIZED machine of
// Proposition 19 under every schedule — possible because its PRNG state
// snapshots with the machine. Every terminal state must be quiescent with the
// exact Theorem 2 pulse count, the unique-max node leading, and all final
// IDs distinct whenever every non-max node resampled at least once into
// the (deliberately huge) [1, ID_max-1] range.
func TestExhaustiveAlg3Resample(t *testing.T) {
	// Unlike the deterministic machines, the resampler's reachable state
	// space grows quickly: a resample happens on (almost) every pulse past
	// the trigger, so different interleavings advance the PRNGs by
	// different amounts and states stop converging. Keep the instance tiny.
	ids := []uint64{2, 6, 2} // colliding small IDs + a unique max
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	wantSent := core.PredictedAlg3Pulses(3, 6, core.SchemeSuccessor)
	cfg := check.Config{
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
	rep, err := check.Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("randomized machine: %d states, %d terminal", rep.StatesVisited, rep.TerminalStates)
	if rep.TerminalStates == 0 {
		t.Error("no terminal states")
	}
}

// TestExhaustiveFindsInjectedBug plants a deliberately broken machine (it
// terminates one pulse early) and checks that exploration reports a
// violation: the checker can actually fail.
func TestExhaustiveFindsInjectedBug(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := check.Config{
		Topo: topo,
		NewMachines: func() ([]node.PulseMachine, error) {
			return []node.PulseMachine{&eagerQuitter{}, &eagerQuitter{}}, nil
		},
	}
	_, err = check.Exhaustive(cfg)
	if err == nil {
		t.Fatal("exploration of a broken protocol reported no error")
	}
	if !errors.Is(err, check.ErrViolation) && !errors.Is(err, check.ErrStalled) {
		t.Errorf("err = %v, want a violation or stall", err)
	}
}

// eagerQuitter sends one pulse and terminates upon the first arrival even
// though its peer may still have pulses addressed to it.
type eagerQuitter struct {
	terminated bool
	got        int
}

func (q *eagerQuitter) Init(e node.PulseEmitter) {
	e.Send(pulse.Port1, pulse.Pulse{})
	e.Send(pulse.Port1, pulse.Pulse{})
}

func (q *eagerQuitter) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	q.got++
	q.terminated = true
}

func (q *eagerQuitter) Ready(pulse.Port) bool { return !q.terminated }

func (q *eagerQuitter) Status() node.Status {
	return node.Status{Terminated: q.terminated, State: node.StateLeader}
}

func (q *eagerQuitter) SnapshotTo(buf []byte) []byte {
	buf = node.AppendKey64(buf, uint64(q.got))
	if q.terminated {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func (q *eagerQuitter) Restore(snap []byte) {
	q.got = int(node.Key64(snap))
	q.terminated = snap[8] != 0
}

// misrouted sends its Init pulse on port 2, which no ring node has, and
// swallows every pulse.
type misrouted struct{ eagerQuitter }

func (m *misrouted) Init(e node.PulseEmitter) { e.Send(pulse.Port(2), pulse.Pulse{}) }

// TestInvalidSendPortViolation: a send on a port other than Port0 and
// Port1 is a violation naming the node and the port, as on the simulator
// and the live runtime, sequentially and in parallel.
func TestInvalidSendPortViolation(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		_, err := check.Exhaustive(check.Config{
			Topo:    topo,
			Workers: workers,
			NewMachines: func() ([]node.PulseMachine, error) {
				return []node.PulseMachine{&misrouted{}, &misrouted{}, &misrouted{}}, nil
			},
		})
		if !errors.Is(err, check.ErrViolation) || !strings.Contains(err.Error(), "node 0 sent on invalid port 2") {
			t.Errorf("workers=%d: err = %v, want a violation naming node 0 and port 2", workers, err)
		}
	}
}

// TestExhaustiveValidation covers config validation paths.
func TestExhaustiveValidation(t *testing.T) {
	if _, err := check.Exhaustive(check.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	topo, _ := ring.Oriented(1)
	if _, err := check.Exhaustive(check.Config{Topo: topo}); err == nil {
		t.Error("nil NewMachines accepted")
	}
	// A machine must be Undoable; a gap is a structured error naming the
	// machine's index, from both entry points.
	topo2, _ := ring.Oriented(2)
	for _, tc := range []struct {
		name, want string
		m          node.PulseMachine
	}{
		{"non-undoable", "machine 1 does not implement node.Undoable", plainMachine{}},
	} {
		cfg := check.Config{
			Topo: topo2,
			NewMachines: func() ([]node.PulseMachine, error) {
				return []node.PulseMachine{&eagerQuitter{}, tc.m}, nil
			},
		}
		_, err := check.Exhaustive(cfg)
		_, ferr := check.ExhaustiveFaults(cfg, fault.Plan{Classes: fault.NewSet(fault.Loss), Budget: 1})
		for _, e := range []error{err, ferr} {
			if !errors.Is(e, check.ErrNotExplorable) || !strings.Contains(fmt.Sprint(e), tc.want) {
				t.Errorf("%s: err = %v, want ErrNotExplorable naming %q", tc.name, e, tc.want)
			}
		}
	}
}

type plainMachine struct{}

func (plainMachine) Init(node.PulseEmitter)                           {}
func (plainMachine) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (plainMachine) Ready(pulse.Port) bool                            { return true }
func (plainMachine) Status() node.Status                              { return node.Status{} }

// TestStateBudget: a tiny budget trips ErrStateBudget.
func TestStateBudget(t *testing.T) {
	cfg := alg2Config(t, []uint64{1, 2, 3}, false)
	cfg.MaxStates = 3
	if _, err := check.Exhaustive(cfg); !errors.Is(err, check.ErrStateBudget) {
		t.Errorf("err = %v, want ErrStateBudget", err)
	}
}
