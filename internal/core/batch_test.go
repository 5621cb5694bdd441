package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// sendLog records every pulse a handler emits, a run expanded into its
// pulses, so a batched transition compares send for send with OnMsg.
type sendLog []pulse.Port

func (l *sendLog) Send(p pulse.Port, _ pulse.Pulse) { *l = append(*l, p) }

func (l *sendLog) SendRun(p pulse.Port, n uint64) {
	for ; n > 0; n-- {
		*l = append(*l, p)
	}
}

// TestOnPulsesFromCorruptedStates checks the BatchMachine contract from
// the states a Corrupt fault restores, which no fault-free run reaches:
// OnPulses(p, k) must consume between 1 and k pulses and leave the
// machine, its status and its sends exactly as that many OnMsg calls
// would. Each trial drives one machine through Init and random OnMsg
// steps, corrupts its snapshot (fault.Plane.Perturb in both modes, or a
// counter set next to an ID or to 2^64), restores it into two fresh
// machines and steps one batched and one per pulse.
func TestOnPulsesFromCorruptedStates(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{5, 9, 3}
	algs := []struct {
		name  string
		build func() ([]node.PulseMachine, error)
	}{
		{"alg1", func() ([]node.PulseMachine, error) { return core.Alg1Machines(topo, ids) }},
		{"alg2", func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) }},
		{"alg3", func() ([]node.PulseMachine, error) { return core.Alg3Machines(3, ids, core.SchemeSuccessor) }},
	}
	rng := rand.New(rand.NewSource(20))
	for _, alg := range algs {
		for trial := 0; trial < 4000; trial++ {
			ms, err := alg.build()
			if err != nil {
				t.Fatal(err)
			}
			k := rng.Intn(len(ms))
			m := ms[k]
			var discard sendLog
			m.Init(&discard)
			for i := rng.Intn(40); i > 0 && !m.Status().Terminated; i-- {
				if p := pulse.Port(rng.Intn(2)); m.Ready(p) {
					m.OnMsg(p, pulse.Pulse{}, &discard)
				}
			}
			snap := corrupt(t, rng, trial, k, m.(node.Undoable).SnapshotTo(nil), ids[k])

			var batched, single []node.PulseMachine
			if batched, err = alg.build(); err != nil {
				t.Fatal(err)
			}
			if single, err = alg.build(); err != nil {
				t.Fatal(err)
			}
			b, s := batched[k], single[k]
			b.(node.Undoable).Restore(snap)
			s.(node.Undoable).Restore(snap)

			p := pulse.Port(rng.Intn(2))
			offered := uint64(1 + rng.Intn(40))
			var bSent, sSent sendLog
			got := b.(node.BatchMachine).OnPulses(p, offered, &bSent)
			if got < 1 || got > offered {
				t.Fatalf("%s trial %d: OnPulses(%v, %d) from %x consumed %d", alg.name, trial, p, offered, snap, got)
			}
			for i := uint64(0); i < got; i++ {
				s.OnMsg(p, pulse.Pulse{}, &sSent)
			}
			bSnap := b.(node.Undoable).SnapshotTo(nil)
			sSnap := s.(node.Undoable).SnapshotTo(nil)
			if !slices.Equal(bSnap, sSnap) || !slices.Equal(bSent, sSent) ||
				fmt.Sprint(b.Status()) != fmt.Sprint(s.Status()) {
				t.Fatalf("%s trial %d: OnPulses(%v, %d) from %x consumed %d:\nbatched   %x sent %v status %+v\nper pulse %x sent %v status %+v",
					alg.name, trial, p, offered, snap, got, bSnap, bSent, b.Status(), sSnap, sSent, s.Status())
			}
		}
	}
}

// corrupt returns a corrupted copy of node k's snapshot: a PerturbOutput
// or PerturbBytes firing of a seeded plane, or one counter word set to a
// value next to the node's ID or next to 2^64.
func corrupt(t *testing.T, rng *rand.Rand, trial, k int, snap []byte, id uint64) []byte {
	t.Helper()
	if trial%3 == 2 {
		out := slices.Clone(snap)
		v := math.MaxUint64 - uint64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			v = id + uint64(rng.Intn(5)) - 2
		}
		w := 8 * rng.Intn((len(out)-1)/8)
		copy(out[w:], node.AppendKey64(nil, v))
		return out
	}
	mode := fault.PerturbOutput
	if trial%3 == 1 {
		mode = fault.PerturbBytes
	}
	plane, err := fault.New(int64(trial), fault.Config{Nodes: 3, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return plane.Perturb(k, snap)
}
