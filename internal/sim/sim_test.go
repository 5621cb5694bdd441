package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// probe is a scriptable test machine: its behavior is driven by small
// callback hooks so individual simulator features can be exercised in
// isolation.
type probe struct {
	onInit  func(e node.PulseEmitter)
	onMsg   func(p pulse.Port, e node.PulseEmitter)
	ready   func(p pulse.Port) bool
	status  node.Status
	arrived []pulse.Port
}

func (pr *probe) Init(e node.PulseEmitter) {
	if pr.onInit != nil {
		pr.onInit(e)
	}
}

func (pr *probe) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	pr.arrived = append(pr.arrived, p)
	if pr.onMsg != nil {
		pr.onMsg(p, e)
	}
}

func (pr *probe) Ready(p pulse.Port) bool {
	if pr.ready != nil {
		return pr.ready(p)
	}
	return !pr.status.Terminated
}

func (pr *probe) Status() node.Status { return pr.status }

func mustTopo(t *testing.T, n int) ring.Topology {
	t.Helper()
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewValidation(t *testing.T) {
	topo := mustTopo(t, 2)
	if _, err := sim.New[pulse.Pulse](topo, nil, sim.Canonical{}); err == nil {
		t.Error("mismatched machine count accepted")
	}
	if _, err := sim.New(topo, []node.PulseMachine{&probe{}, &probe{}}, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
}

// TestQuiescenceEmptyRun: machines that send nothing quiesce immediately.
func TestQuiescenceEmptyRun(t *testing.T) {
	topo := mustTopo(t, 3)
	ms := []node.PulseMachine{&probe{}, &probe{}, &probe{}}
	s, err := sim.New(topo, ms, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent || res.Sent != 0 || res.Steps != 3 {
		t.Errorf("res = %+v", res)
	}
}

// TestPingAround: one pulse forwarded clockwise by everyone except the
// origin, which absorbs it: n deliveries, then quiescence.
func TestPingAround(t *testing.T) {
	const n = 5
	topo := mustTopo(t, n)
	ms := make([]node.PulseMachine, n)
	for k := 0; k < n; k++ {
		k := k
		pr := &probe{}
		if k == 0 {
			pr.onInit = func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
		} else {
			pr.onMsg = func(p pulse.Port, e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
		}
		ms[k] = pr
	}
	s, err := sim.New(topo, ms, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.Delivered != n || !res.Quiescent {
		t.Errorf("sent=%d delivered=%d quiescent=%t, want %d/%d/true",
			res.Sent, res.Delivered, res.Quiescent, n, n)
	}
	if res.SentCW != n || res.SentCCW != 0 {
		t.Errorf("direction split (%d,%d), want (%d,0)", res.SentCW, res.SentCCW, n)
	}
}

// TestReadyGating: a pulse destined for a non-ready port stays queued; the
// run stalls (error) because nothing can ever be delivered.
func TestReadyGating(t *testing.T) {
	topo := mustTopo(t, 2)
	sender := &probe{onInit: func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }}
	blocked := &probe{ready: func(pulse.Port) bool { return false }}
	s, err := sim.New(topo, []node.PulseMachine{sender, blocked}, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(100)
	if !errors.Is(err, sim.ErrStalled) {
		t.Errorf("err = %v, want ErrStalled", err)
	}
	if len(blocked.arrived) != 0 {
		t.Error("pulse was delivered to a non-ready port")
	}
}

// TestTerminatedNonEmptyDetected: a node terminating while another pulse is
// still queued for it violates quiescent termination and aborts the run.
func TestTerminatedNonEmptyDetected(t *testing.T) {
	topo := mustTopo(t, 2)
	// Node 0 sends two clockwise pulses at init; node 1 terminates on the
	// first delivery while the second is still queued.
	doubleSender := &probe{onInit: func(e node.PulseEmitter) {
		e.Send(pulse.Port1, pulse.Pulse{})
		e.Send(pulse.Port1, pulse.Pulse{})
	}}
	relay := &probe{}
	relay.onMsg = func(p pulse.Port, e node.PulseEmitter) {
		relay.status.Terminated = true
	}
	s, err := sim.New(topo, []node.PulseMachine{doubleSender, relay}, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(100)
	if !errors.Is(err, sim.ErrTerminatedNonEmpty) {
		t.Errorf("err = %v, want ErrTerminatedNonEmpty", err)
	}
}

// TestSendToTerminatedNode: a send emitted after the target has terminated
// is caught at flush time.
func TestSendToTerminatedNode(t *testing.T) {
	topo := mustTopo(t, 2)
	// Node 1 terminates at init. Node 0 sends at init (after node 1 in
	// init order, so the violation is caught at node 0's flush).
	lateSender := &probe{onInit: func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }}
	earlyTerm := &probe{}
	earlyTerm.onInit = func(e node.PulseEmitter) { earlyTerm.status.Terminated = true }
	s, err := sim.New(topo, []node.PulseMachine{lateSender, earlyTerm}, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitNode(1); err != nil {
		t.Fatal(err)
	}
	err = s.InitNode(0)
	if !errors.Is(err, sim.ErrPostTerminationSend) {
		t.Errorf("err = %v, want ErrPostTerminationSend", err)
	}
}

// TestMachineFaultAborts: a machine reporting Status().Err aborts the run.
func TestMachineFaultAborts(t *testing.T) {
	topo := mustTopo(t, 2)
	faulty := &probe{}
	faulty.onInit = func(e node.PulseEmitter) { faulty.status.Err = errors.New("boom") }
	s, err := sim.New(topo, []node.PulseMachine{faulty, &probe{}}, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(10)
	if !errors.Is(err, sim.ErrMachineFault) {
		t.Errorf("err = %v, want ErrMachineFault", err)
	}
}

// TestStepLimit: a two-node pulse ping-pong never quiesces; the limit trips.
func TestStepLimit(t *testing.T) {
	topo := mustTopo(t, 2)
	mk := func() *probe {
		pr := &probe{}
		pr.onInit = func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
		pr.onMsg = func(p pulse.Port, e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
		return pr
	}
	s, err := sim.New(topo, []node.PulseMachine{mk(), mk()}, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(50)
	if !errors.Is(err, sim.ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

// TestObserverSeesEvents: observers receive one event per init and
// delivery, with send records attached.
func TestObserverSeesEvents(t *testing.T) {
	topo := mustTopo(t, 2)
	a := &probe{onInit: func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }}
	b := &probe{}
	var events []sim.Event
	obs := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
		cp := *e
		events = append(events, cp)
		return nil
	})
	s, err := sim.New(topo, []node.PulseMachine{a, b}, sim.Canonical{}, sim.WithObserver[pulse.Pulse](obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 { // 2 inits + 1 delivery
		t.Fatalf("saw %d events, want 3: %+v", len(events), events)
	}
	if events[0].Kind != sim.EvInit || len(events[0].Sends) != 1 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[2].Kind != sim.EvDeliver || events[2].Node != 1 || events[2].Dir != pulse.CW {
		t.Errorf("event 2 = %+v", events[2])
	}
}

// TestObserverErrorAborts: observer errors abort the run.
func TestObserverErrorAborts(t *testing.T) {
	topo := mustTopo(t, 1)
	obs := sim.ObserverFunc[pulse.Pulse](func(*sim.Event, *sim.Sim[pulse.Pulse]) error {
		return errors.New("observer says no")
	})
	s, err := sim.New(topo, []node.PulseMachine{&probe{}}, sim.Canonical{}, sim.WithObserver[pulse.Pulse](obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10); err == nil {
		t.Error("observer error did not abort run")
	}
}

// TestManualStepping exercises the checker-facing API: InitNode,
// Deliverable, Deliver.
func TestManualStepping(t *testing.T) {
	topo := mustTopo(t, 2)
	a := &probe{onInit: func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }}
	b := &probe{}
	s, err := sim.New(topo, []node.PulseMachine{a, b}, sim.Canonical{})
	if err != nil {
		t.Fatal(err)
	}
	if ds := s.Deliverable(); len(ds) != 0 {
		t.Errorf("deliverable before init: %v", ds)
	}
	if err := s.InitNode(0); err != nil {
		t.Fatal(err)
	}
	if err := s.InitNode(0); err == nil {
		t.Error("double init accepted")
	}
	// The pulse sits at node 1, which is uninitialized: not deliverable.
	if ds := s.Deliverable(); len(ds) != 0 {
		t.Errorf("deliverable to uninitialized node: %v", ds)
	}
	if err := s.InitNode(1); err != nil {
		t.Fatal(err)
	}
	ds := s.Deliverable()
	if len(ds) != 1 {
		t.Fatalf("deliverable = %v, want one channel", ds)
	}
	if s.QueueLen(ds[0]) != 1 {
		t.Errorf("queue len = %d, want 1", s.QueueLen(ds[0]))
	}
	if err := s.Deliver(ds[0]); err != nil {
		t.Fatal(err)
	}
	if !s.Quiescent() {
		t.Error("not quiescent after the only pulse was delivered")
	}
	if err := s.Deliver(ds[0]); err == nil {
		t.Error("delivery from empty channel accepted")
	}
	if err := s.InitNode(5); err == nil {
		t.Error("out-of-range init accepted")
	}
}

// TestCanonicalOrder: the canonical scheduler delivers in global send
// order.
func TestCanonicalOrder(t *testing.T) {
	const n = 4
	topo := mustTopo(t, n)
	ms := make([]node.PulseMachine, n)
	for k := 0; k < n; k++ {
		pr := &probe{}
		pr.onInit = func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
		ms[k] = pr
	}
	var order []int
	obs := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
		if e.Kind == sim.EvDeliver {
			order = append(order, e.Node)
		}
		return nil
	})
	s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithObserver[pulse.Pulse](obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// Node k's init pulse (sent k-th) is received by node k+1; canonical
	// order must deliver them in send order: 1, 2, 3, 0.
	want := fmt.Sprint([]int{1, 2, 3, 0})
	if fmt.Sprint(order) != want {
		t.Errorf("delivery order = %v, want %s", order, want)
	}
}

// TestRandomSchedulerDeterminism: equal seeds give equal runs.
func TestRandomSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		topo := mustTopo(t, 3)
		ms := make([]node.PulseMachine, 3)
		for k := range ms {
			pr := &probe{}
			count := 0
			pr.onInit = func(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
			pr.onMsg = func(p pulse.Port, e node.PulseEmitter) {
				count++
				if count < 5 {
					e.Send(pulse.Port1, pulse.Pulse{})
					e.Send(pulse.Port0, pulse.Pulse{})
				}
			}
			ms[k] = pr
		}
		var order []int
		obs := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
			order = append(order, e.Node*2+int(e.Port))
			return nil
		})
		s, err := sim.New(topo, ms, sim.NewRandom(seed), sim.WithObserver[pulse.Pulse](obs))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(10000); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b, c := run(42), run(42), run(43)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed produced different runs")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// TestChannelHelpers pins the channel-id encoding.
func TestChannelHelpers(t *testing.T) {
	if sim.ChanNode(5) != 2 || sim.ChanPort(5) != pulse.Port1 {
		t.Error("channel id helpers broken")
	}
	if sim.ChanNode(4) != 2 || sim.ChanPort(4) != pulse.Port0 {
		t.Error("channel id helpers broken")
	}
}

// algInstance is one algorithm/topology configuration exercised by the
// engine differentials, in both machine representations: a
// pointer-machine slice (sim.New) and a struct-of-arrays bank
// (sim.NewFlat).
type algInstance struct {
	name     string
	topo     func() (ring.Topology, error)
	machines func() ([]node.PulseMachine, error)
	bank     func() (node.FlatPulseMachine, error)
	budget   uint64
}

func algInstances() []algInstance {
	return []algInstance{
		{
			name: "alg1/dup-ids",
			topo: func() (ring.Topology, error) { return ring.Oriented(4) },
			machines: func() ([]node.PulseMachine, error) {
				topo, err := ring.Oriented(4)
				if err != nil {
					return nil, err
				}
				return core.Alg1Machines(topo, []uint64{2, 2, 1, 2})
			},
			bank: func() (node.FlatPulseMachine, error) {
				topo, err := ring.Oriented(4)
				if err != nil {
					return nil, err
				}
				return core.NewFlatAlg1(topo, []uint64{2, 2, 1, 2})
			},
			budget: 4*core.PredictedAlg1Pulses(4, 2) + 1024,
		},
		{
			name: "alg2/oriented",
			topo: func() (ring.Topology, error) { return ring.Oriented(5) },
			machines: func() ([]node.PulseMachine, error) {
				topo, err := ring.Oriented(5)
				if err != nil {
					return nil, err
				}
				return core.Alg2Machines(topo, []uint64{3, 1, 4, 2, 5})
			},
			bank: func() (node.FlatPulseMachine, error) {
				topo, err := ring.Oriented(5)
				if err != nil {
					return nil, err
				}
				return core.NewFlatAlg2(topo, []uint64{3, 1, 4, 2, 5})
			},
			budget: 4*core.PredictedAlg2Pulses(5, 5) + 1024,
		},
		{
			name: "alg3/non-oriented",
			topo: func() (ring.Topology, error) { return ring.NonOriented([]bool{true, false, true}) },
			machines: func() ([]node.PulseMachine, error) {
				return core.Alg3Machines(3, []uint64{2, 1, 3}, core.SchemeSuccessor)
			},
			bank: func() (node.FlatPulseMachine, error) {
				return core.NewFlatAlg3(3, []uint64{2, 1, 3}, core.SchemeSuccessor)
			},
			budget: 4*core.PredictedAlg3Pulses(3, 3, core.SchemeSuccessor) + 1024,
		},
		{
			name: "alg1/permuted",
			topo: func() (ring.Topology, error) { return ring.Oriented(6) },
			machines: func() ([]node.PulseMachine, error) {
				topo, err := ring.Oriented(6)
				if err != nil {
					return nil, err
				}
				return core.Alg1Machines(topo, []uint64{4, 6, 1, 5, 3, 2})
			},
			bank: func() (node.FlatPulseMachine, error) {
				topo, err := ring.Oriented(6)
				if err != nil {
					return nil, err
				}
				return core.NewFlatAlg1(topo, []uint64{4, 6, 1, 5, 3, 2})
			},
			budget: 4*core.PredictedAlg1Pulses(6, 6) + 1024,
		},
		{
			// Consecutive IDs are the scale workload's shape: backlogs
			// snowball into ring-sized waves under the Heaviest scheduler.
			name: "alg2/consecutive",
			topo: func() (ring.Topology, error) { return ring.Oriented(6) },
			machines: func() ([]node.PulseMachine, error) {
				topo, err := ring.Oriented(6)
				if err != nil {
					return nil, err
				}
				return core.Alg2Machines(topo, ring.ConsecutiveIDs(6))
			},
			bank: func() (node.FlatPulseMachine, error) {
				topo, err := ring.Oriented(6)
				if err != nil {
					return nil, err
				}
				return core.NewFlatAlg2(topo, ring.ConsecutiveIDs(6))
			},
			budget: 4*core.PredictedAlg2Pulses(6, 6) + 1024,
		},
		{
			name: "alg3/doubled",
			topo: func() (ring.Topology, error) { return ring.NonOriented([]bool{false, true, true, false}) },
			machines: func() ([]node.PulseMachine, error) {
				return core.Alg3Machines(4, []uint64{3, 1, 4, 2}, core.SchemeDoubled)
			},
			bank: func() (node.FlatPulseMachine, error) {
				return core.NewFlatAlg3(4, []uint64{3, 1, 4, 2}, core.SchemeDoubled)
			},
			budget: 4*core.PredictedAlg3Pulses(4, 4, core.SchemeDoubled) + 1024,
		},
	}
}

// compareRuns fails the test unless two runs agree exactly: the same
// error text, event-for-event identical traces, and DeepEqual Results.
func compareRuns(t *testing.T, label string,
	refEv []sim.Event, refRes sim.Result, refErr error,
	gotEv []sim.Event, gotRes sim.Result, gotErr error,
) {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) ||
		(refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: run errors diverge: reference %v, got %v", label, refErr, gotErr)
	}
	if len(refEv) != len(gotEv) {
		t.Fatalf("%s: trace lengths diverge: reference %d events, got %d", label, len(refEv), len(gotEv))
	}
	for i := range refEv {
		if !reflect.DeepEqual(refEv[i], gotEv[i]) {
			t.Fatalf("%s: event %d diverges:\nreference %+v\ngot       %+v", label, i, refEv[i], gotEv[i])
		}
	}
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Fatalf("%s: results diverge:\nreference %+v\ngot       %+v", label, refRes, gotRes)
	}
}

// recordEvents returns an observer option that appends a deep copy of
// every event to *dst.
func recordEvents(dst *[]sim.Event) sim.Option[pulse.Pulse] {
	return sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
		func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
			cp := *e
			cp.Sends = append([]sim.SendRec(nil), e.Sends...)
			*dst = append(*dst, cp)
			return nil
		}))
}

// runInstance executes inst on the pointer or flat bank under a fresh
// instance of the named stock scheduler and returns its event stream,
// Result, and error.
func runInstance(t *testing.T, inst algInstance, schedName string, seed int64, flat bool,
	opts ...sim.Option[pulse.Pulse],
) ([]sim.Event, sim.Result, error) {
	t.Helper()
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	opts = append([]sim.Option[pulse.Pulse]{recordEvents(&events)}, opts...)
	sched := sim.Stock(seed)[schedName]
	var s *sim.Sim[pulse.Pulse]
	if flat {
		bank, err := inst.bank()
		if err != nil {
			t.Fatal(err)
		}
		s, err = sim.NewFlat(topo, bank, sched, opts...)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		ms, err := inst.machines()
		if err != nil {
			t.Fatal(err)
		}
		s, err = sim.New(topo, ms, sched, opts...)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, runErr := s.Run(inst.budget)
	return events, res, runErr
}

// TestFlatMatchesPointerMachines is the representation differential:
// for every stock scheduler, a flat struct-of-arrays bank driven through
// sim.NewFlat must produce an event-for-event identical trace and Result
// to the pointer-machine slice it mirrors.
func TestFlatMatchesPointerMachines(t *testing.T) {
	for _, inst := range algInstances() {
		for schedName := range sim.Stock(1) {
			t.Run(inst.name+"/"+schedName, func(t *testing.T) {
				ptrEv, ptrRes, ptrErr := runInstance(t, inst, schedName, 5, false)
				flatEv, flatRes, flatErr := runInstance(t, inst, schedName, 5, true)
				compareRuns(t, "flat", ptrEv, ptrRes, ptrErr, flatEv, flatRes, flatErr)
			})
		}
	}
}
