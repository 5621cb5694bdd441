package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// runBoth runs one election twice, on pointer machines through sim.New
// and on a machine bank through sim.NewFlat, each under a fresh scheduler
// from sched, and fails unless both runs end identically.
func runBoth(t *testing.T, topo ring.Topology, ms []node.PulseMachine, bank node.FlatPulseMachine,
	sched func() sim.Scheduler, limit uint64,
) (sim.Result, error) {
	t.Helper()
	s, err := sim.New(topo, ms, sched())
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run(limit)
	fs, err := sim.NewFlat(topo, bank, sched())
	if err != nil {
		t.Fatal(err)
	}
	flatRes, flatErr := fs.Run(limit)
	if fmt.Sprint(runErr) != fmt.Sprint(flatErr) || !reflect.DeepEqual(res, flatRes) {
		t.Fatalf("flat bank diverges from pointer machines:\npointer %+v (err %v)\nflat    %+v (err %v)",
			res, runErr, flatRes, flatErr)
	}
	return res, runErr
}

// FuzzAlg2Election fuzzes ring size, ID assignment, and schedule: every
// input must satisfy Theorem 1 exactly, and the FlatAlg2 bank must end
// the same run identically. Run with `go test -fuzz
// FuzzAlg2Election ./internal/core` for continuous exploration; the seed
// corpus runs in normal test mode.
func FuzzAlg2Election(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(42), uint8(1), uint8(3))
	f.Add(int64(-7), uint8(12), uint8(2))
	f.Add(int64(1<<40), uint8(8), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, schedRaw uint8) {
		n := 1 + int(nRaw%14)
		rng := rand.New(rand.NewSource(seed))
		var ids []uint64
		if seed%2 == 0 {
			ids = ring.PermutedIDs(n, rng)
		} else {
			var err error
			ids, err = ring.SparseIDs(n, uint64(16*n), rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		scheds := []string{"canonical", "newest", "random", "roundrobin", "flaky", "hashdelay"}
		name := scheds[int(schedRaw)%len(scheds)]
		topo, err := ring.Oriented(n)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		bank, err := core.NewFlatAlg2(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
		res, err := runBoth(t, topo, ms, bank, func() sim.Scheduler { return sim.Stock(seed)[name] }, 4*pred+1024)
		if err != nil {
			t.Fatalf("ids=%v: %v", ids, err)
		}
		wantLeader, _ := ring.MaxIndex(ids)
		switch {
		case res.Leader != wantLeader:
			t.Fatalf("ids=%v: leader %d, want %d", ids, res.Leader, wantLeader)
		case res.Sent != pred:
			t.Fatalf("ids=%v: pulses %d, want %d", ids, res.Sent, pred)
		case !res.Quiescent || !res.AllTerminated:
			t.Fatalf("ids=%v: quiescent=%t terminated=%t", ids, res.Quiescent, res.AllTerminated)
		case res.TerminationOrder[n-1] != wantLeader:
			t.Fatalf("ids=%v: leader not last: %v", ids, res.TerminationOrder)
		}
	})
}

// FuzzAlg3Election fuzzes port assignments as well: Theorem 2 must hold
// bit for bit on every wiring, and the FlatAlg3 bank must end the same
// run identically.
func FuzzAlg3Election(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(0b101), false)
	f.Add(int64(9), uint8(6), uint16(0b110011), true)
	f.Add(int64(-3), uint8(1), uint16(1), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, flipBits uint16, doubled bool) {
		n := 1 + int(nRaw%10)
		rng := rand.New(rand.NewSource(seed))
		ids := ring.PermutedIDs(n, rng)
		flips := make([]bool, n)
		for i := range flips {
			flips[i] = flipBits&(1<<i) != 0
		}
		topo, err := ring.NonOriented(flips)
		if err != nil {
			t.Fatal(err)
		}
		scheme := core.SchemeSuccessor
		if doubled {
			scheme = core.SchemeDoubled
		}
		ms, err := core.Alg3Machines(n, ids, scheme)
		if err != nil {
			t.Fatal(err)
		}
		bank, err := core.NewFlatAlg3(n, ids, scheme)
		if err != nil {
			t.Fatal(err)
		}
		pred := core.PredictedAlg3Pulses(n, ring.MaxID(ids), scheme)
		res, err := runBoth(t, topo, ms, bank, func() sim.Scheduler { return sim.NewRandom(seed) }, 4*pred+1024)
		if err != nil {
			t.Fatalf("ids=%v flips=%v: %v", ids, flips, err)
		}
		wantLeader, _ := ring.MaxIndex(ids)
		if res.Leader != wantLeader || res.Sent != pred || !res.Quiescent {
			t.Fatalf("ids=%v flips=%v: leader=%d want=%d sent=%d pred=%d quiescent=%t",
				ids, flips, res.Leader, wantLeader, res.Sent, pred, res.Quiescent)
		}
	})
}
