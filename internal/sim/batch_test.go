package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// replayExpanded replays a batched schedule on a fresh plain sequential
// simulation of inst via BatchReferenceRun and returns the expanded
// (pulse-by-pulse) event stream its observer records, plus the replay's
// Result.
func replayExpanded(t *testing.T, inst algInstance, schedule []sim.Event,
) ([]sim.Event, sim.Result, error) {
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
	// The driving scheduler is irrelevant: BatchReferenceRun replays the
	// recorded schedule itself.
	s, err := sim.New(topo, ms, sim.Canonical{}, recordEvents(&events))
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := sim.BatchReferenceRun(s, schedule)
	return events, res, runErr
}

// checkBatchedAgainstReference is the batched differential's core: the
// batched stream, expanded run by run, must equal the stream a plain
// sequential engine records while replaying the same schedule pulse by
// pulse, and the Results must be DeepEqual (batched step/sent/delivered
// totals count pulses, so they are engine-invariant).
func checkBatchedAgainstReference(t *testing.T, inst algInstance,
	batchedEv []sim.Event, batchedRes sim.Result, batchedErr error,
) {
	t.Helper()
	if batchedErr != nil {
		t.Fatalf("batched run failed: %v", batchedErr)
	}
	expanded, err := sim.ExpandBatchEvents(batchedEv)
	if err != nil {
		t.Fatalf("batched stream violates the emission-uniformity contract: %v", err)
	}
	refEv, refRes, refErr := replayExpanded(t, inst, batchedEv)
	if refErr != nil {
		t.Fatalf("pulse-by-pulse replay of the batched schedule failed: %v", refErr)
	}
	if len(expanded) != len(refEv) {
		t.Fatalf("trace lengths diverge: expanded batched %d events, reference %d", len(expanded), len(refEv))
	}
	for i := range expanded {
		if !reflect.DeepEqual(expanded[i], refEv[i]) {
			t.Fatalf("event %d diverges:\nexpanded  %+v\nreference %+v", i, expanded[i], refEv[i])
		}
	}
	if !reflect.DeepEqual(batchedRes, refRes) {
		t.Fatalf("results diverge:\nbatched   %+v\nreference %+v", batchedRes, refRes)
	}
}

// TestBatchedMatchesExpandedReference is the batched differential on the
// sequential engine: for every stock scheduler x seed x algorithm, in
// both machine representations, the batched run's event stream — each
// batch transition expanded into its consumed pulses — must be
// event-for-event identical to a plain pulse-by-pulse engine delivering
// the same runs one pulse at a time, with DeepEqual Results.
func TestBatchedMatchesExpandedReference(t *testing.T) {
	for _, inst := range algInstances() {
		for schedName := range sim.Stock(1) {
			for _, seed := range []int64{1, 5} {
				for _, flat := range []bool{false, true} {
					mode := "pointer"
					if flat {
						mode = "flat"
					}
					name := fmt.Sprintf("%s/%s/seed=%d/%s", inst.name, schedName, seed, mode)
					t.Run(name, func(t *testing.T) {
						ev, res, err := runInstance(t, inst, schedName, seed, flat, sim.WithBatching())
						checkBatchedAgainstReference(t, inst, ev, res, err)
					})
				}
			}
		}
	}
}

// TestBatchedConservesPulseTotals pins the conservation law the batch
// fast path is built on: batching changes how many pulses one transition
// moves, never how many pulses move. The batched run legitimately takes
// a different admissible schedule than the plain run under the same
// scheduler, but content-oblivious executions are confluent, so the
// election outcome and every pulse total must agree exactly.
func TestBatchedConservesPulseTotals(t *testing.T) {
	for _, inst := range algInstances() {
		t.Run(inst.name, func(t *testing.T) {
			topo, err := inst.topo()
			if err != nil {
				t.Fatal(err)
			}
			ms, err := inst.machines()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sim.New(topo, ms, sim.Canonical{})
			if err != nil {
				t.Fatal(err)
			}
			plainRes, err := plain.Run(inst.budget)
			if err != nil {
				t.Fatal(err)
			}
			ms2, err := inst.machines()
			if err != nil {
				t.Fatal(err)
			}
			batched, err := sim.New(topo, ms2, sim.Canonical{}, sim.WithBatching())
			if err != nil {
				t.Fatal(err)
			}
			batchedRes, err := batched.Run(inst.budget)
			if err != nil {
				t.Fatal(err)
			}
			if batchedRes.Sent != plainRes.Sent ||
				batchedRes.SentCW != plainRes.SentCW ||
				batchedRes.SentCCW != plainRes.SentCCW ||
				batchedRes.Delivered != plainRes.Delivered ||
				batchedRes.Steps != plainRes.Steps ||
				batchedRes.Leader != plainRes.Leader ||
				!reflect.DeepEqual(batchedRes.Leaders, plainRes.Leaders) ||
				!reflect.DeepEqual(batchedRes.Statuses, plainRes.Statuses) ||
				batchedRes.Quiescent != plainRes.Quiescent {
				t.Fatalf("outcomes diverge:\nplain   %+v\nbatched %+v", plainRes, batchedRes)
			}
			transitions, _ := batched.RunsCoalesced()
			if transitions == 0 || transitions > batchedRes.Delivered {
				t.Fatalf("RunsCoalesced transitions = %d, want in [1, %d]", transitions, batchedRes.Delivered)
			}
		})
	}
}

// TestBatchedCoalescesAtScale pins the perf claim behind the fast path:
// on a consecutive-ID Algorithm 2 ring under the Heaviest scheduler,
// backlogs snowball into ring-sized waves, so the batched engine must
// move the full Θ(n·ID_max) pulse volume in a near-linear number of
// transitions — while conserving the pulse total exactly (totals are
// schedule-invariant). Coalescing is genuinely schedule-dependent: the
// canonical scheduler's oldest-first pick is breadth-first, keeps every
// queue shallow during the counterclockwise relay phase, and caps
// batching near 3x on this same workload, which the second half pins as
// a floor so the contrast stays measured rather than assumed.
func TestBatchedCoalescesAtScale(t *testing.T) {
	const n = 512
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := ring.ConsecutiveIDs(n)
	pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
	run := func(sched sim.Scheduler) (sim.Result, uint64, uint64) {
		t.Helper()
		bank, err := core.NewFlatAlg2(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewFlat(topo, bank, sched, sim.WithBatching())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != pred {
			t.Fatalf("sent %d pulses, want %d (batching must conserve the total)", res.Sent, pred)
		}
		transitions, multi := s.RunsCoalesced()
		return res, transitions, multi
	}

	res, transitions, multi := run(sim.Heaviest{})
	// The exact counts pin each scheduler's pick sequence: any change to
	// how a pick is served that alters a single pick moves them.
	if transitions != 8_683 || multi != 5_607 {
		t.Fatalf("Heaviest RunsCoalesced() = (%d, %d), want (8683, 5607)", transitions, multi)
	}
	if multi == 0 {
		t.Fatal("no multi-pulse transitions on a deep-queue workload")
	}
	// ~525k pulses must batch into a small multiple of n transitions.
	if transitions > res.Delivered/50 {
		t.Fatalf("%d transitions for %d pulses: batching coalesced less than 50x under Heaviest",
			transitions, res.Delivered)
	}

	canonRes, canonTransitions, canonMulti := run(sim.Canonical{})
	if canonTransitions != 183_565 || canonMulti != 4_204 {
		t.Fatalf("Canonical RunsCoalesced() = (%d, %d), want (183565, 4204)", canonTransitions, canonMulti)
	}
	if canonTransitions > canonRes.Delivered {
		t.Fatalf("%d canonical transitions for %d pulses", canonTransitions, canonRes.Delivered)
	}
	if canonTransitions < 10*transitions {
		t.Fatalf("canonical coalesced to %d transitions vs Heaviest's %d: the schedule-dependence this test documents has vanished — revisit the batching story",
			canonTransitions, transitions)
	}
}

// TestBatchedStepLimitExact pins that limit bounds the total number of
// handler invocations on the batched engine exactly as on the plain
// one: a run that reaches the limit mid-backlog consumes only the
// pulses the limit leaves, so Steps equals the limit as on the plain
// engine, and replaying the recorded schedule pulse by pulse reproduces
// the batched Result.
func TestBatchedStepLimitExact(t *testing.T) {
	const n = 64
	ids := ring.ConsecutiveIDs(n)
	inst := algInstance{
		name: "alg2/consecutive",
		topo: func() (ring.Topology, error) { return ring.Oriented(n) },
		machines: func() ([]node.PulseMachine, error) {
			topo, err := ring.Oriented(n)
			if err != nil {
				return nil, err
			}
			return core.Alg2Machines(topo, ids)
		},
	}
	topo, err := inst.topo()
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []uint64{n + 1, 1000, 4128, 8000} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			bank, err := core.NewFlatAlg2(topo, ids)
			if err != nil {
				t.Fatal(err)
			}
			var events []sim.Event
			s, err := sim.NewFlat(topo, bank, sim.Heaviest{}, sim.WithBatching(), recordEvents(&events))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(limit)
			if !errors.Is(err, sim.ErrStepLimit) {
				t.Fatalf("batched run ended %v, want ErrStepLimit", err)
			}
			if res.Steps != limit {
				t.Fatalf("batched run stopped at %d steps, want the limit %d", res.Steps, limit)
			}
			_, refRes, refErr := replayExpanded(t, inst, events)
			if refErr != nil {
				t.Fatalf("pulse-by-pulse replay of the batched schedule failed: %v", refErr)
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Fatalf("results diverge:\nbatched   %+v\nreference %+v", res, refRes)
			}
		})
	}
}

// plainOnly is a PulseMachine that deliberately does not implement
// node.BatchMachine.
type plainOnly struct{}

func (plainOnly) Init(node.PulseEmitter)                           {}
func (plainOnly) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (plainOnly) Ready(pulse.Port) bool                            { return true }
func (plainOnly) Status() node.Status                              { return node.Status{} }

// flatPlainOnly is a FlatPulseMachine bank without node.FlatBatchMachine.
type flatPlainOnly struct{ n int }

func (b flatPlainOnly) Len() int                                              { return b.n }
func (b flatPlainOnly) Init(int, node.PulseEmitter)                           {}
func (b flatPlainOnly) OnMsg(int, pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (b flatPlainOnly) Ready(int, pulse.Port) bool                            { return true }
func (b flatPlainOnly) Status(int) node.Status                                { return node.Status{} }

// TestBatchUnsupported pins the construction-time rejections: machines
// without the batch interfaces (pointer and flat) and the fault plane
// all fail with ErrBatchUnsupported.
func TestBatchUnsupported(t *testing.T) {
	topo, err := ring.Oriented(4)
	if err != nil {
		t.Fatal(err)
	}
	plainMachines := []node.PulseMachine{plainOnly{}, plainOnly{}, plainOnly{}, plainOnly{}}
	if _, err := sim.New(topo, plainMachines, sim.Canonical{}, sim.WithBatching()); !errors.Is(err, sim.ErrBatchUnsupported) {
		t.Fatalf("non-BatchMachine pointer bank: got %v, want ErrBatchUnsupported", err)
	}
	if _, err := sim.NewFlat(topo, flatPlainOnly{n: 4}, sim.Canonical{}, sim.WithBatching()); !errors.Is(err, sim.ErrBatchUnsupported) {
		t.Fatalf("non-FlatBatchMachine bank: got %v, want ErrBatchUnsupported", err)
	}

	ms, err := core.Alg1Machines(topo, ring.ConsecutiveIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	plane, err := fault.New(1, fault.Config{Nodes: 4, Classes: fault.AllClasses})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(topo, ms, sim.Canonical{},
		sim.WithFaultPlane[pulse.Pulse](plane), sim.WithBatching()); !errors.Is(err, sim.ErrBatchUnsupported) {
		t.Fatalf("fault plane + batching: got %v, want ErrBatchUnsupported", err)
	}
}

// TestBatchedDeliverRejected pins the driving contract: a batched
// simulation's queues hold counted runs, so the pulse-by-pulse Deliver
// entry point refuses to run.
func TestBatchedDeliverRejected(t *testing.T) {
	topo, err := ring.Oriented(4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ring.ConsecutiveIDs(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithBatching())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := s.InitNode(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Deliver(s.Deliverable()[0]); err == nil {
		t.Fatal("Deliver succeeded on a batched simulation")
	}
}

// TestBatchedRunAllocs asserts the batch fast path stays allocation-free
// per run: a full n=64 Algorithm 2 election (8256 pulses) over a flat
// bank with batching on must fit construction plus the entire run in
// the same 1000-allocation envelope the plain engine meets — which only
// holds if batch transitions, counted-run queue operations, and the
// reusable run emitter allocate nothing as the run progresses.
func TestBatchedRunAllocs(t *testing.T) {
	const n = 64
	run := func() {
		topo, err := ring.Oriented(n)
		if err != nil {
			t.Fatal(err)
		}
		ids := ring.ConsecutiveIDs(n)
		bank, err := core.NewFlatAlg2(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewFlat(topo, bank, sim.Canonical{}, sim.WithBatching())
		if err != nil {
			t.Fatal(err)
		}
		pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != pred {
			t.Fatalf("sent %d pulses, want %d", res.Sent, pred)
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 1000 {
		t.Fatalf("construction + batched run allocated %.0f objects, want <= 1000 (batch path must not allocate)", allocs)
	}
}
