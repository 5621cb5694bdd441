package sim_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// deliveryLog returns an observer option that appends one token per
// delivery to *dst: "node.port", with "xcount" appended for a batched
// transition that consumed more than one pulse.
func deliveryLog(dst *[]string) sim.Option[pulse.Pulse] {
	return sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
		func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
			if e.Kind != sim.EvDeliver {
				return nil
			}
			tok := fmt.Sprintf("%d.%d", e.Node, e.Port)
			if e.Count > 1 {
				tok += fmt.Sprintf("x%d", e.Count)
			}
			*dst = append(*dst, tok)
			return nil
		}))
}

// goldenRun is one pinned run: its machines (pointer or flat), its
// scheduler and any extra options.
type goldenRun struct {
	topo  ring.Topology
	ms    []node.PulseMachine
	bank  node.FlatPulseMachine
	sched sim.Scheduler
	opts  []sim.Option[pulse.Pulse]
}

// schedule runs r to quiescence (or to its error) and returns its
// delivered-channel sequence followed by the run's outcome.
func (r goldenRun) schedule(t *testing.T) []string {
	t.Helper()
	var log []string
	opts := append([]sim.Option[pulse.Pulse]{deliveryLog(&log)}, r.opts...)
	var s *sim.Sim[pulse.Pulse]
	var err error
	if r.bank != nil {
		s, err = sim.NewFlat(r.topo, r.bank, r.sched, opts...)
	} else {
		s, err = sim.New(r.topo, r.ms, r.sched, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20000)
	return append(log, fmt.Sprintf("end steps=%d leader=%d err=%v", res.Steps, res.Leader, err))
}

// goldenMachines builds algorithm alg ("alg1", "alg2", "alg3" or
// "alg3/non-oriented") on n nodes with IDs and orientation drawn from
// seed.
func goldenMachines(t *testing.T, alg string, n int, seed int64) (ring.Topology, []node.PulseMachine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
	ids := ring.PermutedIDs(n, rng)
	topo, err := ring.Oriented(n)
	if alg == "alg3/non-oriented" {
		topo, err = ring.RandomNonOriented(n, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	var ms []node.PulseMachine
	switch alg {
	case "alg1":
		ms, err = core.Alg1Machines(topo, ids)
	case "alg2":
		ms, err = core.Alg2Machines(topo, ids)
	default:
		ms, err = core.Alg3Machines(n, ids, core.SchemeSuccessor)
	}
	if err != nil {
		t.Fatal(err)
	}
	return topo, ms
}

// TestDeliveryScheduleGoldens pins the delivered-channel sequence of a
// grid of runs — every stock scheduler, Algorithms 1–3 on oriented and
// non-oriented rings, several ring sizes and seeds, batched flat runs
// and fault-plane runs — to a digest taken before the per-pulse delivery
// loop was tuned, and spells two short schedules out. Any change to a
// scheduler's draws, to the deliverable set it sees or to the order the
// engine enqueues sends in moves the digest.
func TestDeliveryScheduleGoldens(t *testing.T) {
	h := sha256.New()
	digest := func(log []string) {
		fmt.Fprintln(h, strings.Join(log, " "))
	}
	names := make([]string, 0, len(sim.Stock(1)))
	for name := range sim.Stock(1) {
		names = append(names, name)
	}
	slices.Sort(names)
	runs := 0
	for _, name := range names {
		for _, alg := range []string{"alg1", "alg2", "alg3", "alg3/non-oriented"} {
			for _, n := range []int{2, 3, 8, 33} {
				for seed := int64(1); seed <= 5; seed++ {
					topo, ms := goldenMachines(t, alg, n, seed)
					digest(goldenRun{topo: topo, ms: ms, sched: sim.Stock(seed)[name]}.schedule(t))
					runs++
				}
			}
		}
	}
	for _, sched := range []string{"heaviest", "canonical"} {
		for _, n := range []int{3, 8, 33} {
			topo, err := ring.Oriented(n)
			if err != nil {
				t.Fatal(err)
			}
			bank, err := core.NewFlatAlg2(topo, ring.ConsecutiveIDs(n))
			if err != nil {
				t.Fatal(err)
			}
			digest(goldenRun{topo: topo, bank: bank, sched: sim.Stock(1)[sched],
				opts: []sim.Option[pulse.Pulse]{sim.WithBatching()}}.schedule(t))
			runs++
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, alg := range []string{"alg1", "alg2", "alg3/non-oriented"} {
			topo, ms := goldenMachines(t, alg, 8, seed)
			plane, err := fault.New(seed, fault.Config{Nodes: 8, Classes: fault.AllClasses, Budget: 3, Horizon: 12})
			if err != nil {
				t.Fatal(err)
			}
			digest(goldenRun{topo: topo, ms: ms, sched: sim.NewRandom(seed),
				opts: []sim.Option[pulse.Pulse]{sim.WithFaultPlane[pulse.Pulse](plane)}}.schedule(t))
			runs++
		}
	}
	if got, want := fmt.Sprintf("%d runs %x", runs, h.Sum(nil)), "741 runs 2c638ddb1a4b3aeb25ad227b55210f0289f504eabceeb4dfcd24e38db7099ede"; got != want {
		t.Errorf("schedule grid digest %s, want %s", got, want)
	}

	topo, ms := goldenMachines(t, "alg3/non-oriented", 3, 1)
	got := strings.Join(goldenRun{topo: topo, ms: ms, sched: sim.NewRandom(1)}.schedule(t), " ")
	if want := "2.1 1.0 0.1 2.1 0.1 2.0 0.0 0.0 1.1 1.0 2.1 1.0 1.1 2.0 0.1 1.1 2.0 0.0 1.1 2.0 0.0" +
		" end steps=24 leader=0 err=<nil>"; got != want {
		t.Errorf("non-oriented alg3 n=3 random seed 1 schedule\n%s\nwant\n%s", got, want)
	}
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := core.NewFlatAlg2(topo, ring.ConsecutiveIDs(3))
	if err != nil {
		t.Fatal(err)
	}
	got = strings.Join(goldenRun{topo: topo, bank: bank, sched: sim.Heaviest{},
		opts: []sim.Option[pulse.Pulse]{sim.WithBatching()}}.schedule(t), " ")
	if want := "1.0 2.0x2 0.0 0.0x2 1.0 1.0 0.1 2.0 2.1 1.1 1.1 0.1 2.1 1.1 0.1 2.1 1.1 0.1 2.1" +
		" end steps=24 leader=2 err=<nil>"; got != want {
		t.Errorf("batched flat alg2 n=3 heaviest schedule\n%s\nwant\n%s", got, want)
	}
}
