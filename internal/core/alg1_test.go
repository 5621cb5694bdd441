package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"coleader/internal/core"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// limitFor returns a generous step budget for a run expected to take
// `pulses` deliveries.
func limitFor(pulses uint64) uint64 { return 4*pulses + 64 }

// runAlg1 executes Algorithm 1 on an oriented ring with the given IDs under
// the given scheduler and returns the result.
func runAlg1(t *testing.T, ids []uint64, sched sim.Scheduler) sim.Result {
	t.Helper()
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatalf("Oriented(%d): %v", len(ids), err)
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatalf("Alg1Machines: %v", err)
	}
	s, err := sim.New(topo, ms, sched)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	res, err := s.Run(limitFor(core.PredictedAlg1Pulses(len(ids), ring.MaxID(ids))))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestAlg1ElectsMaxID(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]uint64{
		{1},
		{5},
		{1, 2},
		{2, 1},
		{3, 1, 2},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{7, 3, 9, 1, 4},
		ring.ConsecutiveIDs(16),
		ring.PermutedIDs(24, rng),
	}
	for _, ids := range cases {
		ids := ids
		t.Run(fmt.Sprintf("ids=%v", ids), func(t *testing.T) {
			res := runAlg1(t, ids, sim.Canonical{})
			wantLeader, _ := ring.MaxIndex(ids)
			if !res.Quiescent {
				t.Error("network did not reach quiescence")
			}
			if res.Leader != wantLeader {
				t.Errorf("leader = %d, want %d (leaders %v)", res.Leader, wantLeader, res.Leaders)
			}
			want := core.PredictedAlg1Pulses(len(ids), ring.MaxID(ids))
			if res.Sent != want {
				t.Errorf("pulses sent = %d, want exactly %d", res.Sent, want)
			}
			if res.SentCCW != 0 {
				t.Errorf("Algorithm 1 sent %d counterclockwise pulses, want 0", res.SentCCW)
			}
		})
	}
}

func TestAlg1AllSchedulers(t *testing.T) {
	ids := []uint64{4, 9, 2, 7, 5, 1}
	want := core.PredictedAlg1Pulses(len(ids), 9)
	wantLeader, _ := ring.MaxIndex(ids)
	for name, sched := range sim.Stock(7) {
		sched := sched
		t.Run(name, func(t *testing.T) {
			res := runAlg1(t, ids, sched)
			if res.Leader != wantLeader {
				t.Errorf("leader = %d, want %d", res.Leader, wantLeader)
			}
			if res.Sent != want {
				t.Errorf("pulses = %d, want %d", res.Sent, want)
			}
			if !res.Quiescent {
				t.Error("not quiescent")
			}
		})
	}
}

// TestAlg1CountersAtQuiescence checks the Corollary 13 characterization:
// every node has sent and received exactly ID_max pulses.
func TestAlg1CountersAtQuiescence(t *testing.T) {
	ids := []uint64{3, 8, 5, 2}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.NewRandom(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(limitFor(32 * 8)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(ids); k++ {
		a := s.Machine(k).(*core.Alg1)
		if a.RhoCW() != 8 || a.SigCW() != 8 {
			t.Errorf("node %d: rho=%d sig=%d, want both 8 (ID_max)", k, a.RhoCW(), a.SigCW())
		}
	}
}

// TestAlg1DuplicateIDs checks Lemma 16: with non-unique IDs (including a
// duplicated maximum) the network still quiesces with every node at ID_max
// pulses, and exactly the maximum-ID nodes end in the Leader state.
func TestAlg1DuplicateIDs(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		max    uint64
		dupMax int
	}{
		{"two-max-of-4", 4, 6, 2},
		{"three-max-of-6", 6, 5, 3},
		{"all-same", 5, 4, 5},
		{"adjacent-max", 2, 3, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ids, err := ring.DuplicateIDs(tc.n, tc.max, tc.dupMax)
			if err != nil {
				t.Fatalf("DuplicateIDs: %v", err)
			}
			if tc.dupMax == tc.n {
				for i := range ids {
					ids[i] = tc.max
				}
			}
			res := runAlg1(t, ids, sim.NewRandom(11))
			if !res.Quiescent {
				t.Error("not quiescent")
			}
			want := core.PredictedAlg1Pulses(tc.n, tc.max)
			if res.Sent != want {
				t.Errorf("pulses = %d, want %d", res.Sent, want)
			}
			var wantLeaders []int
			for i, id := range ids {
				if id == tc.max {
					wantLeaders = append(wantLeaders, i)
				}
			}
			if fmt.Sprint(res.Leaders) != fmt.Sprint(wantLeaders) {
				t.Errorf("leaders = %v, want %v (ids=%v)", res.Leaders, wantLeaders, ids)
			}
		})
	}
}

// TestAlg1NeverTerminates checks that Algorithm 1 stabilizes without
// terminating: no node reports Terminated even at quiescence.
func TestAlg1NeverTerminates(t *testing.T) {
	res := runAlg1(t, []uint64{2, 4, 1}, sim.Canonical{})
	if res.AllTerminated {
		t.Error("Algorithm 1 must not terminate")
	}
	for k, st := range res.Statuses {
		if st.Terminated {
			t.Errorf("node %d reports Terminated", k)
		}
	}
}

// TestAlg1RejectsCCWPulse checks the machine's self-diagnosis: feeding an
// Algorithm 1 machine a pulse on its clockwise port (impossible in a closed
// run) must surface a machine fault.
func TestAlg1RejectsCCWPulse(t *testing.T) {
	a, err := core.NewAlg1(3, pulse.Port1)
	if err != nil {
		t.Fatal(err)
	}
	a.OnMsg(pulse.Port1, pulse.Pulse{}, discardEmitter{})
	if a.Status().Err == nil {
		t.Error("want a fault after a counterclockwise arrival, got none")
	}
}

type discardEmitter struct{}

func (discardEmitter) Send(pulse.Port, pulse.Pulse) {}

func TestNewAlg1Validation(t *testing.T) {
	if _, err := core.NewAlg1(0, pulse.Port0); err == nil {
		t.Error("NewAlg1(0, ...) succeeded, want error")
	}
	if _, err := core.NewAlg1(1, pulse.Port(9)); err == nil {
		t.Error("NewAlg1 with invalid port succeeded, want error")
	}
}

// TestAlg1LargeSparseIDs checks the ID_max-driven complexity with a sparse
// assignment: few nodes, huge IDs (the regime of Theorem 4).
func TestAlg1LargeSparseIDs(t *testing.T) {
	ids := []uint64{900, 123, 777}
	res := runAlg1(t, ids, sim.Canonical{})
	if got, want := res.Sent, core.PredictedAlg1Pulses(3, 900); got != want {
		t.Errorf("pulses = %d, want %d", got, want)
	}
	if res.Leader != 0 {
		t.Errorf("leader = %d, want 0", res.Leader)
	}
}
