package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// floodProbe generates a burst of traffic so every scheduler has real
// choices to make: each node sends two pulses per direction at init and
// relays the first few arrivals.
func floodMachines(n int) []node.PulseMachine {
	ms := make([]node.PulseMachine, n)
	for k := 0; k < n; k++ {
		pr := &probe{}
		count := 0
		pr.onInit = func(e node.PulseEmitter) {
			e.Send(pulse.Port0, pulse.Pulse{})
			e.Send(pulse.Port1, pulse.Pulse{})
			e.Send(pulse.Port1, pulse.Pulse{})
		}
		pr.onMsg = func(p pulse.Port, e node.PulseEmitter) {
			count++
			if count <= 4 {
				e.Send(p.Opposite(), pulse.Pulse{})
			}
		}
		ms[k] = pr
	}
	return ms
}

// TestAllStockSchedulersDrainTheNetwork: every stock scheduler reaches
// quiescence on the same workload with identical send/delivery totals
// (totals are schedule-independent for this machine).
func TestAllStockSchedulersDrainTheNetwork(t *testing.T) {
	const n = 4
	topo := mustTopo(t, n)
	var wantSent uint64
	for name, sched := range sim.Stock(9) {
		name, sched := name, sched
		t.Run(name, func(t *testing.T) {
			s, err := sim.New(topo, floodMachines(n), sched)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(10000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Quiescent {
				t.Fatal("not quiescent")
			}
			if res.Sent != res.Delivered {
				t.Fatalf("sent %d != delivered %d", res.Sent, res.Delivered)
			}
			if wantSent == 0 {
				wantSent = res.Sent
			} else if res.Sent != wantSent {
				t.Errorf("sent %d, other schedulers sent %d", res.Sent, wantSent)
			}
		})
	}
}

// schedOrder records the delivery order a scheduler produces on the flood
// workload.
func schedOrder(t *testing.T, sched sim.Scheduler) string {
	t.Helper()
	topo := mustTopo(t, 4)
	var order []int
	obs := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
		if e.Kind == sim.EvDeliver {
			order = append(order, 2*e.Node+int(e.Port))
		}
		return nil
	})
	s, err := sim.New(topo, floodMachines(4), sched, sim.WithObserver[pulse.Pulse](obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(order)
}

// TestHashDelayDeterministicAndSeedSensitive: fixed seed reproduces the
// schedule; different seeds genuinely differ.
func TestHashDelayDeterministicAndSeedSensitive(t *testing.T) {
	a := schedOrder(t, sim.NewHashDelay(5))
	b := schedOrder(t, sim.NewHashDelay(5))
	c := schedOrder(t, sim.NewHashDelay(6))
	if a != b {
		t.Error("same-seed HashDelay runs differ")
	}
	if a == c {
		t.Error("different-seed HashDelay runs identical (suspicious)")
	}
}

// TestSchedulersDiffer: the stock schedulers are not all secretly the same
// policy — at least three distinct delivery orders appear on the flood
// workload.
func TestSchedulersDiffer(t *testing.T) {
	orders := map[string]string{}
	for name, sched := range sim.Stock(3) {
		orders[schedOrder(t, sched)] = name
	}
	if len(orders) < 3 {
		t.Errorf("only %d distinct schedules across the stock set: %v", len(orders), orders)
	}
}

// TestNewestIsLIFOish: on a chain of freshly sent pulses, Newest delivers
// the most recent first.
func TestNewestIsLIFOish(t *testing.T) {
	topo := mustTopo(t, 3)
	// Only node 0 sends: two CW pulses (to node 1), then one CCW (to node 2).
	sender := &probe{onInit: func(e node.PulseEmitter) {
		e.Send(pulse.Port1, pulse.Pulse{})
		e.Send(pulse.Port1, pulse.Pulse{})
		e.Send(pulse.Port0, pulse.Pulse{})
	}}
	var first int
	obs := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
		if e.Kind == sim.EvDeliver && first == 0 {
			first = e.Node
		}
		return nil
	})
	s, err := sim.New(topo, []node.PulseMachine{sender, &probe{}, &probe{}},
		sim.Newest{}, sim.WithObserver[pulse.Pulse](obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// The CCW pulse to node 2 was sent last (the emitter enqueues CW sends
	// first), so Newest must deliver it first.
	if first != 2 {
		t.Errorf("first delivery went to node %d, want 2", first)
	}
}

// TestViewAccessors: scheduler-visible metadata is consistent.
func TestViewAccessors(t *testing.T) {
	topo := mustTopo(t, 2)
	sender := &probe{onInit: func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }}
	var sawDir pulse.Direction
	var sawStep uint64
	inspect := inspectSched{f: func(v sim.View) int {
		ds := v.Deliverable()
		sawDir = v.Direction(ds[0])
		sawStep = v.Step()
		if v.QueueLen(ds[0]) < 1 || v.HeadSeq(ds[0]) == 0 {
			t.Error("queue metadata inconsistent")
		}
		return ds[0]
	}}
	s, err := sim.New(topo, []node.PulseMachine{sender, &probe{}}, inspect)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if sawDir != pulse.CW {
		t.Errorf("direction = %v, want CW", sawDir)
	}
	if sawStep == 0 {
		t.Error("step never observed")
	}
}

type inspectSched struct{ f func(sim.View) int }

func (i inspectSched) Next(v sim.View) int { return i.f(v) }

// TestSimAccessors: Machine/Topology/Step are exposed for observers.
func TestSimAccessors(t *testing.T) {
	topo := mustTopo(t, 2)
	ms := []node.PulseMachine{&probe{}, &probe{}}
	s, err := sim.New(topo, ms, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine(0) != ms[0] {
		t.Error("Machine accessor broken")
	}
	if s.Topology().N() != 2 {
		t.Error("Topology accessor broken")
	}
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.Step() != 2 {
		t.Errorf("Step = %d, want 2 (two inits)", s.Step())
	}
}

// hintedSched asks for the given heaps and picks the lowest deliverable
// channel by scan.
type hintedSched struct{ hints []sim.HeapHint }

func (h hintedSched) Next(v sim.View) int       { return v.Deliverable()[0] }
func (h hintedSched) HeapHints() []sim.HeapHint { return h.hints }

// TestMalformedHeapHintsRejected: New and NewFlat reject a hint the
// simulator cannot serve with ErrHeapHint, on the optimized engine and
// the rescan reference alike, instead of building a useless heap or
// panicking inside Run; well-formed hints still run to quiescence.
func TestMalformedHeapHintsRejected(t *testing.T) {
	rank := func(c int, seq uint64) uint64 { return seq ^ uint64(c) }
	cases := []struct {
		name  string
		hints []sim.HeapHint
		bad   bool
	}{
		{"rank-without-func", []sim.HeapHint{{Kind: sim.HeapRank}}, true},
		{"kind-zero", []sim.HeapHint{{Kind: 0}}, true},
		{"kind-99", []sim.HeapHint{{Kind: 99}}, true},
		{"dir-oldest-dir-7", []sim.HeapHint{{Kind: sim.HeapDirOldest, Dir: 7}}, true},
		{"dir-oldest-no-dir", []sim.HeapHint{{Kind: sim.HeapDirOldest}}, true},
		{"oldest-twice", []sim.HeapHint{{Kind: sim.HeapOldest}, {Kind: sim.HeapOldest}}, true},
		{"heaviest-twice", []sim.HeapHint{{Kind: sim.HeapHeaviest}, {Kind: sim.HeapHeaviest}}, true},
		{"dir-oldest-cw-twice", []sim.HeapHint{
			{Kind: sim.HeapDirOldest, Dir: pulse.CW}, {Kind: sim.HeapDirOldest, Dir: pulse.CW}}, true},
		{"every-kind", []sim.HeapHint{
			{Kind: sim.HeapOldest}, {Kind: sim.HeapNewest},
			{Kind: sim.HeapDirOldest, Dir: pulse.CW}, {Kind: sim.HeapDirOldest, Dir: pulse.CCW},
			{Kind: sim.HeapRank, Rank: rank}, {Kind: sim.HeapHeaviest}}, false},
		{"none", nil, false},
	}
	const n = 4
	ids := []uint64{3, 1, 4, 2}
	for _, tc := range cases {
		for _, flat := range []bool{false, true} {
			for _, rescan := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/flat=%v/rescan=%v", tc.name, flat, rescan), func(t *testing.T) {
					topo := mustTopo(t, n)
					var opts []sim.Option[pulse.Pulse]
					if rescan {
						opts = append(opts, sim.WithRescanDeliverable[pulse.Pulse]())
					}
					sched := hintedSched{hints: tc.hints}
					var s *sim.Sim[pulse.Pulse]
					var err error
					if flat {
						bank, berr := core.NewFlatAlg2(topo, ids)
						if berr != nil {
							t.Fatal(berr)
						}
						s, err = sim.NewFlat(topo, bank, sched, opts...)
					} else {
						ms, merr := core.Alg2Machines(topo, ids)
						if merr != nil {
							t.Fatal(merr)
						}
						s, err = sim.New(topo, ms, sched, opts...)
					}
					if tc.bad {
						if !errors.Is(err, sim.ErrHeapHint) {
							t.Fatalf("construction error = %v, want ErrHeapHint", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run(1 << 16)
					if err != nil || !res.Quiescent || res.Leader < 0 {
						t.Fatalf("run: quiescent=%v leader=%d err=%v", res.Quiescent, res.Leader, err)
					}
				})
			}
		}
	}
}
