package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// outcome is what the checks compare exactly: the counts the paper's
// theorems and the pinned census fix, and the final shape of the run.
// Fields a workload does not produce stay zero on both sides.
type outcome struct {
	Sent, Delivered, Steps uint64
	// Transitions counts machine handler calls on deliveries: one per
	// pulse pulse by pulse, one per OnPulses run when batched.
	Transitions, Coalesced uint64
	Leader                 int
	Quiescent, Terminated  bool

	States, Terminals, MaxDepth    int
	InjectionEdges, ViolationEdges int
	Clean, Degraded, Stalled       int

	Heals, Fired int
}

// job is one op's drawn inputs. run executes the op and may be called
// more than once: it builds fresh machines every time, so a traced and an
// untraced execution of one job see identical inputs.
type job struct {
	want outcome
	run  func(tr *tracer) (outcome, error)
}

// verify runs j once and reports how it differs from its expectation.
func (j job) verify(tr *tracer) (outcome, error) {
	got, err := j.run(tr)
	if err != nil {
		return got, err
	}
	if got != j.want {
		return got, fmt.Errorf("outcome %+v, want %+v", got, j.want)
	}
	return got, nil
}

// rate is one throughput a workload reports: work per op over op time.
type rate struct {
	name string
	work func(outcome) float64
}

// workload draws the inputs of each op from the run's seeded generator.
// rates[0] is the workload's work_per_s. rescale is set on the simulator
// workloads, whose inner loop the yardstick mirrors: their result times
// are rescaled to the nominal machine (see yardstick.go). census and
// live-heal report wall time; their raw spreads fit the bounds.
type workload struct {
	name    string
	draw    func(rng *rand.Rand) (job, error)
	rates   []rate
	rescale bool
}

var (
	pulses      = rate{"pulses_per_s", func(o outcome) float64 { return float64(o.Delivered) }}
	transitions = rate{"transitions_per_s", func(o outcome) float64 { return float64(o.Transitions) }}
	states      = rate{"states_per_s", func(o outcome) float64 { return float64(o.States) }}
)

var workloads = []workload{
	{"elect-batch", drawElectBatch, []rate{pulses, transitions}, true},
	{"elect-pulse", drawElectPulse, []rate{pulses, transitions}, true},
	{"census", drawCensus, []rate{states}, false},
	{"live-heal", drawLiveHeal, []rate{pulses}, false},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// noLimit lets Run go to quiescence: every workload's step count is
// fixed by Theorem 1 or 2, so a budget would only hide a regression.
const noLimit = math.MaxUint64

// Batch election at production scale: Algorithm 2 on an oriented ring of
// 2^16 consecutive IDs, flat bank, Heaviest, pulse-run batching (DESIGN.md
// §8.3). The inputs are fixed, so the seed only names the run.
const (
	batchN           = 1 << 16
	batchTransitions = 1_572_836
	batchCoalesced   = 1_179_609
)

func drawElectBatch(*rand.Rand) (job, error) {
	topo, err := ring.Oriented(batchN)
	if err != nil {
		return job{}, err
	}
	ids := ring.ConsecutiveIDs(batchN)
	sent := core.PredictedAlg2Pulses(batchN, batchN)
	want := outcome{Sent: sent, Delivered: sent, Steps: sent + batchN,
		Transitions: batchTransitions, Coalesced: batchCoalesced,
		Leader: batchN - 1, Quiescent: true, Terminated: true}
	run := func(tr *tracer) (outcome, error) {
		sp := tr.begin("sim.New", false)
		bank, err := core.NewFlatAlg2(topo, ids)
		if err != nil {
			return outcome{}, err
		}
		s, err := sim.NewFlat[pulse.Pulse](topo, tr.flatBank(bank), tr.scheduler(sim.Heaviest{}), sim.WithBatching())
		if err != nil {
			return outcome{}, err
		}
		tr.end(sp)
		sp = tr.begin("sim.Run", true)
		res, err := s.Run(noLimit)
		tr.end(sp)
		runs, multi := s.RunsCoalesced()
		return simOutcome(res, runs, multi), err
	}
	return job{want: want, run: run}, nil
}

// Pulse-by-pulse election: Algorithm 3 with successor IDs on a random
// non-oriented ring of 128 nodes with permuted IDs, pointer machines,
// the Random scheduler (ringsim's default). Ring, IDs and scheduler seed
// are drawn per op.
const pulseN = 128

func drawElectPulse(rng *rand.Rand) (job, error) {
	topo, err := ring.RandomNonOriented(pulseN, rng)
	if err != nil {
		return job{}, err
	}
	ids := ring.PermutedIDs(pulseN, rng)
	schedSeed := rng.Int63()
	leader, _ := ring.MaxIndex(ids)
	sent := core.PredictedAlg3Pulses(pulseN, ring.MaxID(ids), core.SchemeSuccessor)
	want := outcome{Sent: sent, Delivered: sent, Steps: sent + pulseN, Transitions: sent,
		Leader: leader, Quiescent: true}
	run := func(tr *tracer) (outcome, error) {
		sp := tr.begin("sim.New", false)
		ms, err := core.Alg3Machines(pulseN, ids, core.SchemeSuccessor)
		if err != nil {
			return outcome{}, err
		}
		s, err := sim.New(topo, tr.machines(ms), tr.scheduler(sim.NewRandom(schedSeed)))
		if err != nil {
			return outcome{}, err
		}
		tr.end(sp)
		sp = tr.begin("sim.Run", true)
		res, err := s.Run(noLimit)
		tr.end(sp)
		return simOutcome(res, res.Delivered, 0), err
	}
	return job{want: want, run: run}, nil
}

func simOutcome(res sim.Result, trans, multi uint64) outcome {
	return outcome{Sent: res.Sent, Delivered: res.Delivered, Steps: res.Steps,
		Transitions: trans, Coalesced: multi, Leader: res.Leader,
		Quiescent: res.Quiescent, Terminated: res.AllTerminated}
}

// Fault census: every schedule of Algorithm 2 on 7 nodes interleaved with
// every single loss, crash or corruption. The seed rotates the ID ring,
// which maps the state space onto an isomorphic one, so the pinned counts
// hold on every seed.
var censusIDs = []uint64{7, 1, 6, 2, 5, 3, 4}

var censusWant = outcome{States: 582_051, Terminals: 273, MaxDepth: 106,
	InjectionEdges: 421_120, ViolationEdges: 34_198, Clean: 66, Degraded: 69, Stalled: 137}

func drawCensus(rng *rand.Rand) (job, error) { return censusJob(rng.Intn(len(censusIDs))) }

// censusJob is the census with the ID ring rotated by r.
func censusJob(r int) (job, error) {
	n := len(censusIDs)
	ids := append(append([]uint64(nil), censusIDs[r:]...), censusIDs[:r]...)
	topo, err := ring.Oriented(n)
	if err != nil {
		return job{}, err
	}
	leader, _ := ring.MaxIndex(ids)
	sent := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
	plan := fault.Plan{Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt), Budget: 1}
	run := func(tr *tracer) (outcome, error) {
		verdict := func(f check.Final) error {
			if len(f.Leaders) != 1 || f.Leaders[0] != leader {
				return fmt.Errorf("leaders %v, want [%d]", f.Leaders, leader)
			}
			if f.Sent != sent {
				return fmt.Errorf("sent %d pulses, want %d", f.Sent, sent)
			}
			for k, st := range f.Statuses {
				if !st.Terminated {
					return fmt.Errorf("node %d did not terminate", k)
				}
			}
			return nil
		}
		cfg := check.Config{
			Topo:        topo,
			NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) },
			Check:       verdict,
			Workers:     1,
		}
		if tr != nil {
			cfg.Check = func(f check.Final) error {
				t0 := time.Now()
				err := verdict(f)
				tr.check.add(t0)
				return err
			}
		}
		sp := tr.begin("check.ExhaustiveFaults", true)
		rep, err := check.ExhaustiveFaults(cfg, plan)
		tr.end(sp)
		return outcome{States: rep.StatesVisited, Terminals: rep.TerminalStates, MaxDepth: rep.MaxDepth,
			InjectionEdges: rep.InjectionEdges, ViolationEdges: rep.ViolationEdges,
			Clean: rep.CleanTerminals, Degraded: rep.DegradedTerminals, Stalled: rep.StalledTerminals}, err
	}
	return job{want: censusWant, run: run}, nil
}

// Self-healing live election: Algorithm 2 on 256 goroutine nodes with
// consecutive IDs; a scripted plane crashes two seed-chosen nodes at
// fixed handler ordinals and the checkpoint supervisor revives them, so
// the run still sends exactly Theorem 1's total.
const (
	liveN        = 256
	liveTimeout  = 60 * time.Second
	crashEarly   = 64
	crashLate    = 192
	liveCrashes  = 2
	liveConsults = 3 // plane consults per pulse: send, delivery, handler
)

func drawLiveHeal(rng *rand.Rand) (job, error) {
	topo, err := ring.Oriented(liveN)
	if err != nil {
		return job{}, err
	}
	ids := ring.ConsecutiveIDs(liveN)
	a := rng.Intn(liveN)
	b := (a + 1 + rng.Intn(liveN-1)) % liveN
	schedule := []fault.Injection{
		{Class: fault.Crash, Node: a, Trigger: crashEarly},
		{Class: fault.Crash, Node: b, Trigger: crashLate},
	}
	sent := core.PredictedAlg2Pulses(liveN, liveN)
	want := outcome{Sent: sent, Delivered: sent, Leader: liveN - 1, Quiescent: true, Terminated: true,
		Heals: liveCrashes, Fired: liveCrashes}
	run := func(tr *tracer) (outcome, error) {
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			return outcome{}, err
		}
		plane, err := fault.Scripted(liveFaults, schedule)
		if err != nil {
			return outcome{}, err
		}
		sp := tr.begin("live.Run", true)
		res, err := live.Run(topo, ms, live.WithFaultPlane(plane),
			live.WithSupervisor(live.RestoreCheckpoint), live.WithTimeout(liveTimeout))
		tr.end(sp)
		return outcome{Sent: res.Sent, Delivered: res.Delivered, Leader: res.Leader,
			Quiescent: res.Quiescent, Terminated: res.AllTerminated,
			Heals: len(res.Heals), Fired: plane.Fired()}, err
	}
	return job{want: want, run: run}, nil
}

var liveFaults = fault.Config{Nodes: liveN, Classes: fault.NewSet(fault.Crash)}

// timeLiveConsults prices the plane consult live-heal's run makes per
// event, outside any op: on a fresh plane with live-heal's config and a
// two-crash schedule, one OnSend, OnDeliver and OnHandler per pulse of a
// clean run.
func timeLiveConsults(tr *tracer) error {
	plane, err := fault.Scripted(liveFaults, []fault.Injection{
		{Class: fault.Crash, Node: 0, Trigger: crashEarly},
		{Class: fault.Crash, Node: 1, Trigger: crashLate},
	})
	if err != nil {
		return err
	}
	sent := core.PredictedAlg2Pulses(liveN, liveN)
	sp := tr.begin("fault.consult", false)
	for i := uint64(0); i < sent; i++ {
		c := int(i % (2 * liveN))
		plane.OnSend(0, c)
		plane.OnDeliver(0, c)
		plane.OnHandler(0, c/2)
	}
	tr.end(sp)
	tr.spans[sp].Calls = liveConsults * sent
	return nil
}
