package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// faultInstance mirrors the differential-test instances: one per algorithm,
// rebuilt fresh per run (machines and several schedulers are stateful).
type faultInstance struct {
	name     string
	topo     func() (ring.Topology, error)
	machines func() ([]node.PulseMachine, error)
	budget   uint64
}

func faultInstances() []faultInstance {
	return []faultInstance{
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
			budget: 4*core.PredictedAlg2Pulses(5, 5) + 1024,
		},
		{
			name: "alg3/non-oriented",
			topo: func() (ring.Topology, error) { return ring.NonOriented([]bool{true, false, true}) },
			machines: func() ([]node.PulseMachine, error) {
				return core.Alg3Machines(3, []uint64{2, 1, 3}, core.SchemeSuccessor)
			},
			budget: 4*core.PredictedAlg3Pulses(3, 3, core.SchemeSuccessor) + 1024,
		},
	}
}

// runFaulted runs one fresh simulation with an optional fault plane and
// extra options, and returns its full event trace, result, and error.
func runFaulted(t *testing.T, inst faultInstance, schedName string, seed int64,
	plane *fault.Plane, extra ...sim.Option[pulse.Pulse]) ([]sim.Event, sim.Result, error) {
	t.Helper()
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := inst.machines()
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	opts := []sim.Option[pulse.Pulse]{
		sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
			func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
				cp := *e
				cp.Sends = append([]sim.SendRec(nil), e.Sends...)
				events = append(events, cp)
				return nil
			})),
	}
	if plane != nil {
		opts = append(opts, sim.WithFaultPlane[pulse.Pulse](plane))
	}
	opts = append(opts, extra...)
	s, err := sim.New(topo, ms, sim.Stock(seed)[schedName], opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run(inst.budget)
	return events, res, runErr
}

// TestZeroBudgetPlaneIdentity: a fault plane with zero budget must be
// indistinguishable from no plane at all — event-for-event identical traces
// and identical Results, across every stock scheduler and all three
// algorithms. This is the differential proof that the fault hooks sit
// outside the model-exact paths.
func TestZeroBudgetPlaneIdentity(t *testing.T) {
	var schedNames []string
	for name := range sim.Stock(1) {
		schedNames = append(schedNames, name)
	}
	for _, inst := range faultInstances() {
		n := 0
		switch inst.name {
		case "alg1/dup-ids":
			n = 4
		case "alg2/oriented":
			n = 5
		default:
			n = 3
		}
		for _, schedName := range schedNames {
			for _, seed := range []int64{1, 7} {
				name := fmt.Sprintf("%s/%s/seed=%d", inst.name, schedName, seed)
				t.Run(name, func(t *testing.T) {
					plane, err := fault.New(seed, fault.Config{Nodes: n, Classes: fault.AllClasses})
					if err != nil {
						t.Fatal(err)
					}
					bare, bareRes, bareErr := runFaulted(t, inst, schedName, seed, nil)
					planed, planedRes, planedErr := runFaulted(t, inst, schedName, seed, plane)
					if (bareErr == nil) != (planedErr == nil) ||
						(bareErr != nil && bareErr.Error() != planedErr.Error()) {
						t.Fatalf("errors diverge: plane-free %v, zero-budget %v", bareErr, planedErr)
					}
					if !reflect.DeepEqual(bare, planed) {
						t.Fatalf("traces diverge:\nplane-free %d events\nzero-budget %d events", len(bare), len(planed))
					}
					if !reflect.DeepEqual(bareRes, planedRes) {
						t.Fatalf("results diverge:\nplane-free %+v\nzero-budget %+v", bareRes, planedRes)
					}
					if len(plane.Log()) != 0 {
						t.Fatalf("zero-budget plane scheduled injections: %v", plane.Log())
					}
				})
			}
		}
	}
}

// TestFaultedOptimizedMatchesRescan is the optimized-vs-rescan
// differential under a firing fault plane, for every stock scheduler:
// the scan-served ones, the WeightedView tree's (Random, Laggy) and
// every aux heap's, HeapHeaviest's hot entry included. Faults are where
// incremental upkeep can drift from the scan: a crashed node's channels
// keep their pulses but must stop counting toward the weighted pick and
// drop out of the heaps, restart and corrupt flip Ready, and spurious
// and duplicated pulses grow queues outside any handler. Every run must
// match its WithRescanDeliverable twin event for event, with identical
// Result, error and injection log.
func TestFaultedOptimizedMatchesRescan(t *testing.T) {
	classes := map[fault.Class]int{}
	for _, inst := range faultInstances() {
		for schedName := range sim.Stock(1) {
			for _, seed := range []int64{1, 2, 3, 5, 7, 11} {
				name := fmt.Sprintf("%s/%s/seed=%d", inst.name, schedName, seed)
				t.Run(name, func(t *testing.T) {
					topo, err := inst.topo()
					if err != nil {
						t.Fatal(err)
					}
					cfg := fault.Config{Nodes: topo.N(), Classes: fault.AllClasses, Budget: 4, Horizon: 6}
					run := func(extra ...sim.Option[pulse.Pulse]) ([]sim.Event, sim.Result, error, []fault.Injection) {
						plane, err := fault.New(seed, cfg)
						if err != nil {
							t.Fatal(err)
						}
						ev, res, runErr := runFaulted(t, inst, schedName, seed, plane, extra...)
						return ev, res, runErr, plane.Log()
					}
					refEv, refRes, refErr, refLog := run(sim.WithRescanDeliverable[pulse.Pulse]())
					gotEv, gotRes, gotErr, gotLog := run()
					compareRuns(t, "optimized", refEv, refRes, refErr, gotEv, gotRes, gotErr)
					if !reflect.DeepEqual(refLog, gotLog) {
						t.Fatalf("injection logs diverge:\nrescan    %v\noptimized %v", refLog, gotLog)
					}
					for _, in := range gotLog {
						if in.Fired {
							classes[in.Class]++
						}
					}
				})
			}
		}
	}
	// The differential only means something if the plane reached the
	// runs: every class must have fired somewhere in the set.
	for _, c := range []fault.Class{fault.Loss, fault.Dup, fault.Spurious, fault.Crash, fault.Restart, fault.Corrupt} {
		if classes[c] == 0 {
			t.Errorf("no %v injection fired across the differential set", c)
		}
	}
}

// TestFaultedRunDeterminism: identical (seed, budget, config) must yield an
// identical injection log, trace, and result across repeated runs.
func TestFaultedRunDeterminism(t *testing.T) {
	inst := faultInstances()[0] // alg1
	cfg := fault.Config{
		Nodes: 4, Classes: fault.NewSet(fault.Corrupt, fault.Loss, fault.Dup),
		Budget: 4, Horizon: 3,
	}
	run := func() ([]sim.Event, sim.Result, error, []fault.Injection) {
		plane, err := fault.New(99, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, res, runErr := runFaulted(t, inst, "random", 5, plane)
		return ev, res, runErr, plane.Log()
	}
	ev1, res1, err1, log1 := run()
	ev2, res2, err2, log2 := run()
	if !reflect.DeepEqual(log1, log2) {
		t.Errorf("injection logs diverge:\n%v\nvs\n%v", log1, log2)
	}
	if !reflect.DeepEqual(ev1, ev2) || !reflect.DeepEqual(res1, res2) {
		t.Errorf("faulted runs diverge")
	}
	if (err1 == nil) != (err2 == nil) {
		t.Errorf("errors diverge: %v vs %v", err1, err2)
	}
}

// alg1Clean runs a plane-free Algorithm 1 reference on n nodes with the
// given IDs and returns its result.
func alg1Clean(t *testing.T, ids []uint64, schedName string, seed int64) sim.Result {
	t.Helper()
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.Stock(seed)[schedName])
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(4*core.PredictedAlg1Pulses(len(ids), ring.MaxID(ids)) + 1024)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCorruptOutputHeals: output-plane corruption (tail-byte perturbation,
// triggered inside the first half of the run) leaves Algorithm 1's pulse
// traffic untouched and is overwritten by later deliveries: the run
// re-quiesces to the same unique, correct leader with the exact clean pulse
// count — the stabilization half of the paper's robustness story.
func TestCorruptOutputHeals(t *testing.T) {
	ids := []uint64{3, 1, 4, 2}
	idMax := ring.MaxID(ids)
	clean := alg1Clean(t, ids, "canonical", 1)
	for _, budget := range []int{1, 2, 4} {
		plane, err := fault.New(17, fault.Config{
			Nodes: len(ids), Classes: fault.NewSet(fault.Corrupt),
			Budget: budget, Horizon: idMax / 2, Mode: fault.PerturbOutput,
		})
		if err != nil {
			t.Fatal(err)
		}
		topo, _ := ring.Oriented(len(ids))
		ms, err := core.Alg1Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.Stock(1)["canonical"], sim.WithFaultPlane[pulse.Pulse](plane))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(4*core.PredictedAlg1Pulses(len(ids), idMax) + 1024)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if plane.Fired() != budget {
			t.Errorf("budget %d: only %d injections fired\n%s", budget, plane.Fired(), fault.FormatLog(plane.Log()))
		}
		if !res.Quiescent || res.Leader != clean.Leader || res.Sent != clean.Sent {
			t.Errorf("budget %d: corrupted run did not heal: quiescent=%t leader=%d sent=%d (clean leader=%d sent=%d)",
				budget, res.Quiescent, res.Leader, res.Sent, clean.Leader, clean.Sent)
		}
	}
}

// TestCrashStalls: a crashed node strands its incoming pulses, which the
// simulator reports as ErrStalled with the pulses still in flight.
func TestCrashStalls(t *testing.T) {
	ids := []uint64{1, 2, 3}
	plane, err := fault.New(2, fault.Config{
		Nodes: len(ids), Classes: fault.NewSet(fault.Crash), Budget: 1, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := ring.Oriented(len(ids))
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.Stock(1)["canonical"], sim.WithFaultPlane[pulse.Pulse](plane))
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := s.Run(4096)
	if !errors.Is(runErr, sim.ErrStalled) {
		t.Fatalf("crash run: err = %v, want ErrStalled (result %+v)", runErr, res)
	}
	if plane.Fired() != 1 {
		t.Errorf("crash never fired:\n%s", fault.FormatLog(plane.Log()))
	}
}

// TestSpuriousNeverRequiesces: by pulse conservation, Algorithm 1 absorbs
// exactly as many pulses as there are nodes with counters below their ID;
// one injected extra pulse therefore circulates forever. The network never
// re-quiesces (step limit) — yet that is exactly the stabilization claim's
// other half: outputs still settle, only quiescence is lost.
func TestSpuriousNeverRequiesces(t *testing.T) {
	ids := []uint64{3, 1, 4, 2}
	for seed := int64(1); seed <= 20; seed++ {
		plane, err := fault.New(seed, fault.Config{
			Nodes: len(ids), Classes: fault.NewSet(fault.Spurious), Budget: 1, Horizon: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		topo, _ := ring.Oriented(len(ids))
		ms, err := core.Alg1Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.Stock(1)["canonical"], sim.WithFaultPlane[pulse.Pulse](plane))
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := s.Run(4096)
		if plane.Fired() == 0 {
			continue // injection targeted an untrafficked channel; try next seed
		}
		if !errors.Is(runErr, sim.ErrStepLimit) {
			t.Fatalf("seed %d: spurious pulse run ended %v, want ErrStepLimit", seed, runErr)
		}
		return
	}
	t.Fatal("no seed in 1..20 fired a spurious injection on a trafficked channel")
}

// TestLossStillQuiesces: losing pulses can only shrink Algorithm 1's
// absorption debt, so the network still quiesces — but the election may
// come out wrong, which is precisely the degradation the model's
// no-loss clause exists to prevent.
func TestLossStillQuiesces(t *testing.T) {
	ids := []uint64{3, 1, 4, 2}
	clean := alg1Clean(t, ids, "canonical", 1)
	for seed := int64(1); seed <= 20; seed++ {
		plane, err := fault.New(seed, fault.Config{
			Nodes: len(ids), Classes: fault.NewSet(fault.Loss), Budget: 1, Horizon: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		topo, _ := ring.Oriented(len(ids))
		ms, err := core.Alg1Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.Stock(1)["canonical"], sim.WithFaultPlane[pulse.Pulse](plane))
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := s.Run(4096)
		if plane.Fired() == 0 {
			continue
		}
		if runErr != nil || !res.Quiescent {
			t.Fatalf("seed %d: loss run ended %v quiescent=%t, want clean quiescence", seed, runErr, res.Quiescent)
		}
		if res.Sent >= clean.Sent {
			t.Errorf("seed %d: loss run sent %d pulses, clean run %d — loss did not shed traffic", seed, res.Sent, clean.Sent)
		}
		return
	}
	t.Fatal("no seed in 1..20 fired a loss injection on a trafficked channel")
}

// TestRestartReinitializes: a restart resets the machine to its initial
// snapshot and re-runs Init as a fresh wake-up event, so the trace carries
// n+1 init events instead of n.
func TestRestartReinitializes(t *testing.T) {
	ids := []uint64{3, 1, 4, 2}
	for seed := int64(1); seed <= 20; seed++ {
		plane, err := fault.New(seed, fault.Config{
			Nodes: len(ids), Classes: fault.NewSet(fault.Restart), Budget: 1, Horizon: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		topo, _ := ring.Oriented(len(ids))
		ms, err := core.Alg1Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		inits := 0
		s, err := sim.New(topo, ms, sim.Stock(1)["canonical"],
			sim.WithFaultPlane[pulse.Pulse](plane),
			sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
				func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
					if e.Kind == sim.EvInit {
						inits++
					}
					return nil
				})))
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := s.Run(8192)
		if plane.Fired() == 0 {
			continue
		}
		// Whatever the final outcome (the election may come out wrong, or
		// the revived absorption debt may leave a pulse circulating into
		// the step limit), the restarted node woke up a second time.
		if inits != len(ids)+1 {
			t.Errorf("seed %d: restart run saw %d init events, want %d (err=%v)",
				seed, inits, len(ids)+1, runErr)
		}
		return
	}
	t.Fatal("no seed in 1..20 fired a restart")
}

// inert is a minimal pulse machine that is not node.Undoable: Restart and
// Corrupt injections aimed at it must be logged as skipped.
type inert struct{}

func (inert) Init(node.PulseEmitter)                           {}
func (inert) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (inert) Ready(pulse.Port) bool                            { return true }
func (inert) Status() node.Status                              { return node.Status{State: node.StateUndecided} }

func TestRestartNonUndoableSkipped(t *testing.T) {
	plane, err := fault.New(4, fault.Config{
		Nodes: 2, Classes: fault.NewSet(fault.Restart, fault.Corrupt), Budget: 2, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := ring.Oriented(2)
	ms := []node.PulseMachine{inert{}, inert{}}
	s, err := sim.New(topo, ms, sim.Stock(1)["canonical"], sim.WithFaultPlane[pulse.Pulse](plane))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(64); err != nil {
		t.Fatal(err)
	}
	for _, in := range plane.Log() {
		if in.Fired && !in.Skipped {
			t.Errorf("node fault on a non-Undoable machine not skipped: %+v", in)
		}
	}
	if plane.Fired() == 0 {
		t.Error("no node fault fired on the inert ring")
	}
}

// TestFlatBankRejectsFaultPlane pins the fault×flat contract: restart
// and corrupt injections snapshot per-node state through node.Undoable,
// which a struct-of-arrays bank does not expose, so NewFlat must refuse
// the combination with the structured ErrFaultPlaneUndoable — callers
// branch on errors.Is, not on prose (DESIGN.md §9).
func TestFlatBankRejectsFaultPlane(t *testing.T) {
	topo, err := ring.Oriented(4)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := core.NewFlatAlg2(topo, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	plane, err := fault.New(1, fault.Config{Nodes: 4, Classes: fault.AllClasses})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.NewFlat[pulse.Pulse](topo, bank, sim.Stock(1)["canonical"],
		sim.WithFaultPlane[pulse.Pulse](plane))
	if !errors.Is(err, sim.ErrFaultPlaneUndoable) {
		t.Fatalf("NewFlat with fault plane: err = %v, want ErrFaultPlaneUndoable", err)
	}
	if err == nil || !strings.Contains(err.Error(), "Undoable") {
		t.Fatalf("error should name the node.Undoable requirement, got %q", err)
	}
}

// TestWindowedFaultDeterminism: TriggerWindow planes are as deterministic
// on the simulator as local-ordinal ones — identical (seed, config) gives
// an identical injection log, trace, and result, with the windowed
// injections actually firing mid-run.
func TestWindowedFaultDeterminism(t *testing.T) {
	inst := faultInstances()[1] // alg2
	cfg := fault.Config{
		Nodes: 5, Classes: fault.NewSet(fault.Loss, fault.Crash),
		Budget: 3, Horizon: 12, Trigger: fault.TriggerWindow,
	}
	run := func() ([]sim.Event, sim.Result, error, []fault.Injection) {
		plane, err := fault.New(41, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, res, runErr := runFaulted(t, inst, "random", 7, plane)
		return ev, res, runErr, plane.Log()
	}
	ev1, res1, err1, log1 := run()
	ev2, res2, err2, log2 := run()
	if !reflect.DeepEqual(log1, log2) {
		t.Errorf("windowed injection logs diverge:\n%v\nvs\n%v", log1, log2)
	}
	if !reflect.DeepEqual(ev1, ev2) || !reflect.DeepEqual(res1, res2) {
		t.Errorf("windowed faulted runs diverge")
	}
	if (err1 == nil) != (err2 == nil) {
		t.Errorf("errors diverge: %v vs %v", err1, err2)
	}
	fired := 0
	for _, in := range log1 {
		if !in.Windowed {
			t.Errorf("injection %+v not marked windowed", in)
		}
		if in.Fired {
			fired++
		}
	}
	if fired == 0 {
		t.Error("no windowed injection fired; the test exercised nothing")
	}
}
