package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// runAlg2 executes Algorithm 2 on an oriented ring and returns the result.
func runAlg2(t *testing.T, ids []uint64, sched sim.Scheduler) sim.Result {
	t.Helper()
	res, err := runAlg2Err(ids, sched)
	if err != nil {
		t.Fatalf("Alg2 run (ids=%v): %v", ids, err)
	}
	return res
}

func runAlg2Err(ids []uint64, sched sim.Scheduler) (sim.Result, error) {
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		return sim.Result{}, err
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sim.New(topo, ms, sched)
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run(limitFor(core.PredictedAlg2Pulses(len(ids), ring.MaxID(ids))))
}

// checkAlg2 asserts every guarantee of Theorem 1 on a finished run.
func checkAlg2(t *testing.T, ids []uint64, res sim.Result) {
	t.Helper()
	wantLeader, _ := ring.MaxIndex(ids)
	n, idMax := len(ids), ring.MaxID(ids)

	if !res.Quiescent {
		t.Error("network did not reach quiescence")
	}
	if !res.AllTerminated {
		t.Error("not all nodes terminated")
	}
	if res.Leader != wantLeader {
		t.Errorf("leader = %d, want %d (leaders %v)", res.Leader, wantLeader, res.Leaders)
	}
	for k, st := range res.Statuses {
		want := node.StateNonLeader
		if k == wantLeader {
			want = node.StateLeader
		}
		if st.State != want {
			t.Errorf("node %d output %v, want %v", k, st.State, want)
		}
	}
	if want := core.PredictedAlg2Pulses(n, idMax); res.Sent != want {
		t.Errorf("pulses = %d, want exactly %d = n(2·ID_max+1)", res.Sent, want)
	}
	if want := uint64(n) * idMax; res.SentCW != want {
		t.Errorf("clockwise pulses = %d, want %d = n·ID_max", res.SentCW, want)
	}
	if want := uint64(n)*idMax + uint64(n); res.SentCCW != want {
		t.Errorf("counterclockwise pulses = %d, want %d = n·ID_max + n", res.SentCCW, want)
	}
	// Nodes terminate in order with the leader last (Section 1.1).
	if got := len(res.TerminationOrder); got != n {
		t.Fatalf("termination order has %d entries, want %d", got, n)
	}
	if last := res.TerminationOrder[n-1]; last != wantLeader {
		t.Errorf("last to terminate = node %d, want leader %d", last, wantLeader)
	}
}

func TestAlg2ElectsAndTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sparse, err := ring.SparseIDs(6, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]uint64{
		{1},
		{9},
		{1, 2},
		{2, 1},
		{3, 1, 2},
		{2, 3, 1},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1},
		ring.PermutedIDs(20, rng),
		sparse,
	}
	for _, ids := range cases {
		ids := ids
		t.Run(fmt.Sprintf("ids=%v", ids), func(t *testing.T) {
			checkAlg2(t, ids, runAlg2(t, ids, sim.Canonical{}))
		})
	}
}

func TestAlg2AllSchedulers(t *testing.T) {
	ids := []uint64{4, 11, 2, 7, 5, 1, 9}
	for name, sched := range sim.Stock(13) {
		sched := sched
		t.Run(name, func(t *testing.T) {
			checkAlg2(t, ids, runAlg2(t, ids, sched))
		})
	}
}

// TestAlg2TerminationOrderRing checks the stronger ordering property used
// for composability: after the leader sends the termination pulse, nodes
// terminate in counterclockwise ring order starting from the leader's
// counterclockwise neighbor, with the leader strictly last.
func TestAlg2TerminationOrderRing(t *testing.T) {
	ids := []uint64{3, 6, 1, 5, 2}
	res := runAlg2(t, ids, sim.Canonical{})
	leader, _ := ring.MaxIndex(ids)
	n := len(ids)
	want := make([]int, 0, n)
	for j := 1; j <= n-1; j++ {
		want = append(want, ((leader-j)%n+n)%n)
	}
	want = append(want, leader)
	if fmt.Sprint(res.TerminationOrder) != fmt.Sprint(want) {
		t.Errorf("termination order = %v, want %v", res.TerminationOrder, want)
	}
}

// TestAlg2CountersAtTermination checks that every node ends with
// rho_cw = sig_cw = ID_max and rho_ccw = sig_ccw = ID_max + 1 except that
// the leader absorbs the termination pulse it launched.
func TestAlg2CountersAtTermination(t *testing.T) {
	ids := []uint64{3, 8, 5, 2}
	const idMax = 8
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.NewRandom(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(limitFor(core.PredictedAlg2Pulses(4, idMax))); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(ids); k++ {
		a := s.Machine(k).(*core.Alg2)
		if a.RhoCW() != idMax || a.SigCW() != idMax {
			t.Errorf("node %d: rho_cw=%d sig_cw=%d, want both %d", k, a.RhoCW(), a.SigCW(), idMax)
		}
		if a.RhoCCW() != idMax+1 {
			t.Errorf("node %d: rho_ccw=%d, want %d", k, a.RhoCCW(), idMax+1)
		}
		wantSig := uint64(idMax + 1)
		if a.ID() != idMax {
			// Non-leaders forward the termination pulse: one extra send.
		} else if !a.TerminationPulseSent() {
			t.Errorf("leader did not initiate the termination pulse")
		}
		if a.SigCCW() != wantSig {
			t.Errorf("node %d: sig_ccw=%d, want %d", k, a.SigCCW(), wantSig)
		}
	}
}

// TestAlg2PropertyRandomRings is a property-based test: for random sizes,
// ID assignments, and schedules, Algorithm 2 satisfies Theorem 1 exactly.
func TestAlg2PropertyRandomRings(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var ids []uint64
		if rng.Intn(2) == 0 {
			ids = ring.PermutedIDs(n, rng)
		} else {
			var err error
			ids, err = ring.SparseIDs(n, uint64(n*10), rng)
			if err != nil {
				return false
			}
		}
		res, err := runAlg2Err(ids, sim.NewRandom(seed+1))
		if err != nil {
			t.Logf("seed %d ids %v: %v", seed, ids, err)
			return false
		}
		wantLeader, _ := ring.MaxIndex(ids)
		return res.Quiescent && res.AllTerminated &&
			res.Leader == wantLeader &&
			res.Sent == core.PredictedAlg2Pulses(n, ring.MaxID(ids)) &&
			res.TerminationOrder[n-1] == wantLeader
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAlg2SelfRing checks the n = 1 self-ring: the sole node elects itself
// with exactly 2·ID + 1 pulses.
func TestAlg2SelfRing(t *testing.T) {
	for _, id := range []uint64{1, 2, 5, 33} {
		res := runAlg2(t, []uint64{id}, sim.Canonical{})
		if res.Leader != 0 {
			t.Errorf("id=%d: leader = %d, want 0", id, res.Leader)
		}
		if want := 2*id + 1; res.Sent != want {
			t.Errorf("id=%d: pulses = %d, want %d", id, res.Sent, want)
		}
		if !res.AllTerminated || !res.Quiescent {
			t.Errorf("id=%d: terminated=%t quiescent=%t", id, res.AllTerminated, res.Quiescent)
		}
	}
}

// TestAlg2RejectsDuplicateIDs checks that the constructor refuses the
// assignments Theorem 1 excludes.
func TestAlg2RejectsDuplicateIDs(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Alg2Machines(topo, []uint64{2, 1, 2}); err == nil {
		t.Error("Alg2Machines with duplicate IDs succeeded, want error")
	}
}

// TestAlg2LagInvariant checks the mechanism Theorem 1's proof rests on:
// at no point does any node observe rho_ccw > rho_cw before the
// termination pulse exists, under the CCW-rushing adversary.
func TestAlg2LagInvariant(t *testing.T) {
	ids := []uint64{4, 9, 2, 7}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	termPulseExists := false
	checker := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, s *sim.Sim[pulse.Pulse]) error {
		for k := 0; k < len(ids); k++ {
			a := s.Machine(k).(*core.Alg2)
			if a.TerminationPulseSent() {
				termPulseExists = true
			}
			if !termPulseExists && a.RhoCCW() > a.RhoCW() {
				return fmt.Errorf("node %d: rho_ccw=%d > rho_cw=%d before termination pulse",
					k, a.RhoCCW(), a.RhoCW())
			}
		}
		return nil
	})
	s, err := sim.New(topo, ms, sim.DirBiased{Prefer: pulse.CCW}, sim.WithObserver[pulse.Pulse](checker))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(limitFor(core.PredictedAlg2Pulses(4, 9))); err != nil {
		t.Fatal(err)
	}
}
