package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"coleader/internal/core"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// runAlg3 executes Algorithm 3 on the given (possibly non-oriented)
// topology and returns the simulation for inspection.
func runAlg3(topo ring.Topology, ids []uint64, scheme core.IDScheme, sched sim.Scheduler) (*sim.Sim[pulse.Pulse], sim.Result, error) {
	ms, err := core.Alg3Machines(topo.N(), ids, scheme)
	if err != nil {
		return nil, sim.Result{}, err
	}
	s, err := sim.New(topo, ms, sched)
	if err != nil {
		return nil, sim.Result{}, err
	}
	res, err := s.Run(limitFor(core.PredictedAlg3Pulses(topo.N(), ring.MaxID(ids), scheme)))
	return s, res, err
}

// checkAlg3 asserts the guarantees of Theorem 2 / Proposition 15: unique
// leader at the maximum ID, quiescence without termination, a globally
// consistent orientation, and the exact pulse count for the scheme.
func checkAlg3(t *testing.T, topo ring.Topology, ids []uint64, scheme core.IDScheme, res sim.Result) {
	t.Helper()
	wantLeader, unique := ring.MaxIndex(ids)
	if !unique {
		t.Fatalf("test bug: max ID not unique in %v", ids)
	}
	if !res.Quiescent {
		t.Error("network did not reach quiescence")
	}
	if res.AllTerminated {
		t.Error("Algorithm 3 must not terminate")
	}
	if res.Leader != wantLeader {
		t.Errorf("leader = %d, want %d (leaders %v, ids %v, topo %v)",
			res.Leader, wantLeader, res.Leaders, ids, topo)
	}
	if want := core.PredictedAlg3Pulses(topo.N(), ring.MaxID(ids), scheme); res.Sent != want {
		t.Errorf("pulses = %d, want exactly %d (%v scheme)", res.Sent, want, scheme)
	}
	// Orientation: every node labels a clockwise port, and all labels agree
	// on a single global direction of travel (which may be either of the
	// topology's two directions: "clockwise" is defined relative to the
	// leader's Port1, not to our node numbering).
	var dir pulse.Direction
	for k, st := range res.Statuses {
		if !st.HasOrientation {
			t.Errorf("node %d has no orientation", k)
			continue
		}
		d := topo.DirectionOf(k, st.CWPort)
		if dir == 0 {
			dir = d
		} else if d != dir {
			t.Errorf("node %d orients %v, node 0 orients %v: inconsistent", k, d, dir)
		}
	}
	// The busier direction carries n·(max virtual ID) pulses; with the
	// successor scheme that is n·(ID_max+1) one way and n·ID_max the other.
	if scheme == core.SchemeSuccessor {
		n, idMax := uint64(topo.N()), ring.MaxID(ids)
		hi, lo := res.SentCW, res.SentCCW
		if lo > hi {
			hi, lo = lo, hi
		}
		if hi != n*(idMax+1) || lo != n*idMax {
			t.Errorf("directional pulse split = (%d,%d), want (%d,%d)",
				hi, lo, n*(idMax+1), n*idMax)
		}
	}
}

func TestAlg3OrientedWiring(t *testing.T) {
	for _, scheme := range []core.IDScheme{core.SchemeDoubled, core.SchemeSuccessor} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			ids := []uint64{3, 7, 1, 5}
			topo, err := ring.Oriented(len(ids))
			if err != nil {
				t.Fatal(err)
			}
			_, res, err := runAlg3(topo, ids, scheme, sim.Canonical{})
			if err != nil {
				t.Fatal(err)
			}
			checkAlg3(t, topo, ids, scheme, res)
		})
	}
}

// TestAlg3AllPortAssignments sweeps every one of the 2^n port assignments
// of small rings (the full space of Figure 1's non-oriented rings).
func TestAlg3AllPortAssignments(t *testing.T) {
	ids := []uint64{2, 5, 1, 3}
	n := len(ids)
	for mask := 0; mask < 1<<n; mask++ {
		flips := make([]bool, n)
		for i := range flips {
			flips[i] = mask&(1<<i) != 0
		}
		topo, err := ring.NonOriented(flips)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []core.IDScheme{core.SchemeDoubled, core.SchemeSuccessor} {
			_, res, err := runAlg3(topo, ids, scheme, sim.Canonical{})
			if err != nil {
				t.Fatalf("mask %04b scheme %v: %v", mask, scheme, err)
			}
			checkAlg3(t, topo, ids, scheme, res)
		}
	}
}

func TestAlg3AllSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ids := []uint64{6, 2, 9, 4, 1, 7}
	topo, err := ring.RandomNonOriented(len(ids), rng)
	if err != nil {
		t.Fatal(err)
	}
	for name, sched := range sim.Stock(23) {
		sched := sched
		t.Run(name, func(t *testing.T) {
			_, res, err := runAlg3(topo, ids, core.SchemeSuccessor, sched)
			if err != nil {
				t.Fatal(err)
			}
			checkAlg3(t, topo, ids, core.SchemeSuccessor, res)
		})
	}
}

// TestAlg3PropertyRandom is a property-based sweep over random sizes, IDs,
// port assignments, schemes, and schedules.
func TestAlg3PropertyRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		ids := ring.PermutedIDs(n, rng)
		topo, err := ring.RandomNonOriented(n, rng)
		if err != nil {
			return false
		}
		scheme := core.SchemeDoubled
		if rng.Intn(2) == 0 {
			scheme = core.SchemeSuccessor
		}
		_, res, err := runAlg3(topo, ids, scheme, sim.NewRandom(seed+1))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		wantLeader, _ := ring.MaxIndex(ids)
		if res.Leader != wantLeader || !res.Quiescent {
			t.Logf("seed %d: leader %d want %d quiescent %t", seed, res.Leader, wantLeader, res.Quiescent)
			return false
		}
		return res.Sent == core.PredictedAlg3Pulses(n, ring.MaxID(ids), scheme)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestAlg3StabilizedCounters checks the per-direction stabilization of the
// proof of Theorem 2: with successor IDs every node receives ID_max+1
// pulses from one direction and ID_max from the other.
func TestAlg3StabilizedCounters(t *testing.T) {
	ids := []uint64{4, 9, 2}
	topo, err := ring.NonOriented([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := runAlg3(topo, ids, core.SchemeSuccessor, sim.NewRandom(9))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(ids); k++ {
		a := s.Machine(k).(*core.Alg3)
		r0, r1 := a.Rho(pulse.Port0), a.Rho(pulse.Port1)
		hi, lo := r0, r1
		if lo > hi {
			hi, lo = lo, hi
		}
		if hi != 10 || lo != 9 {
			t.Errorf("node %d: rho = (%d,%d), want {10,9} (ID_max=9)", k, r0, r1)
		}
	}
}

// TestAlg3SelfRing checks n = 1: the sole node's two virtual IDs drive the
// two directions and it elects itself.
func TestAlg3SelfRing(t *testing.T) {
	for _, scheme := range []core.IDScheme{core.SchemeDoubled, core.SchemeSuccessor} {
		topo, err := ring.Oriented(1)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := runAlg3(topo, []uint64{4}, scheme, sim.Canonical{})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		checkAlg3(t, topo, []uint64{4}, scheme, res)
	}
}

// TestAlg3VirtualIDs pins the two schemes' virtual-ID arithmetic.
func TestAlg3VirtualIDs(t *testing.T) {
	cases := []struct {
		scheme core.IDScheme
		id     uint64
		want   [2]uint64
	}{
		{core.SchemeDoubled, 1, [2]uint64{1, 2}},
		{core.SchemeDoubled, 7, [2]uint64{13, 14}},
		{core.SchemeSuccessor, 1, [2]uint64{1, 2}},
		{core.SchemeSuccessor, 7, [2]uint64{7, 8}},
	}
	for _, tc := range cases {
		a, err := core.NewAlg3(tc.id, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]uint64{a.VirtualID(0), a.VirtualID(1)}; got != tc.want {
			t.Errorf("%v id=%d: virtual IDs %v, want %v", tc.scheme, tc.id, got, tc.want)
		}
	}
}

// TestVirtualIDOverflowRejected checks every Algorithm 3 constructor at
// the edges of the uint64 range: an ID whose larger virtual ID would wrap
// (2·ID for doubled, ID+1 for successor) is an error, and the largest ID
// that fits still builds with its exact virtual IDs.
func TestVirtualIDOverflowRejected(t *testing.T) {
	const maxID = ^uint64(0)
	builders := []struct {
		name  string
		build func(id uint64, s core.IDScheme) ([2]uint64, error)
	}{
		{"NewAlg3", func(id uint64, s core.IDScheme) ([2]uint64, error) {
			a, err := core.NewAlg3(id, s)
			if err != nil {
				return [2]uint64{}, err
			}
			return [2]uint64{a.VirtualID(0), a.VirtualID(1)}, nil
		}},
		{"Alg3Machines", func(id uint64, s core.IDScheme) ([2]uint64, error) {
			ms, err := core.Alg3Machines(2, []uint64{1, id}, s)
			if err != nil {
				return [2]uint64{}, err
			}
			a := ms[1].(*core.Alg3)
			return [2]uint64{a.VirtualID(0), a.VirtualID(1)}, nil
		}},
		{"NewFlatAlg3", func(id uint64, s core.IDScheme) ([2]uint64, error) {
			_, err := core.NewFlatAlg3(2, []uint64{1, id}, s)
			return [2]uint64{}, err
		}},
		{"NewAlg3Resample", func(id uint64, s core.IDScheme) ([2]uint64, error) {
			_, err := core.NewAlg3Resample(id, s, 1)
			return [2]uint64{}, err
		}},
	}
	cases := []struct {
		scheme core.IDScheme
		id     uint64
		want   [2]uint64 // zero when the ID must be rejected
	}{
		{core.SchemeDoubled, 1<<63 - 1, [2]uint64{maxID - 2, maxID - 1}},
		{core.SchemeDoubled, 1 << 63, [2]uint64{}},
		{core.SchemeDoubled, maxID, [2]uint64{}},
		{core.SchemeSuccessor, maxID - 1, [2]uint64{maxID - 1, maxID}},
		{core.SchemeSuccessor, maxID, [2]uint64{}},
	}
	for _, b := range builders {
		name := b.name
		for _, tc := range cases {
			vid, err := b.build(tc.id, tc.scheme)
			switch {
			case tc.want == [2]uint64{} && err == nil:
				t.Errorf("%s(%d, %v): nil error, want overflow", name, tc.id, tc.scheme)
			case tc.want != [2]uint64{} && err != nil:
				t.Errorf("%s(%d, %v): %v", name, tc.id, tc.scheme, err)
			case err != nil && !strings.Contains(err.Error(), "overflows"):
				t.Errorf("%s(%d, %v): error %q does not name the overflow", name, tc.id, tc.scheme, err)
			case err == nil && vid != [2]uint64{} && vid != tc.want:
				t.Errorf("%s(%d, %v): virtual IDs %v, want %v", name, tc.id, tc.scheme, vid, tc.want)
			}
		}
	}
}

func TestIDSchemeString(t *testing.T) {
	if core.SchemeDoubled.String() != "doubled" || core.SchemeSuccessor.String() != "successor" {
		t.Error("unexpected scheme names")
	}
	if _, err := core.NewAlg3(1, core.IDScheme(99)); err == nil {
		t.Error("NewAlg3 with bogus scheme succeeded, want error")
	}
}

// TestAlg3DuplicateRealIDs exercises Lemma 16 at the Algorithm 3 level:
// duplicate real IDs below the maximum do not disturb election or counts.
func TestAlg3DuplicateRealIDs(t *testing.T) {
	ids := []uint64{3, 7, 3, 5, 3} // unique max 7 at node 1
	topo, err := ring.NonOriented([]bool{false, true, true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := runAlg3(topo, ids, core.SchemeSuccessor, sim.NewRandom(31))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 {
		t.Errorf("leader = %d, want 1 (ids %v)", res.Leader, ids)
	}
	if want := core.PredictedAlg3Pulses(5, 7, core.SchemeSuccessor); res.Sent != want {
		t.Errorf("pulses = %d, want %d", res.Sent, want)
	}
}

func ExampleIDScheme_String() {
	fmt.Println(core.SchemeDoubled, core.SchemeSuccessor)
	// Output: doubled successor
}
