package experiments

import (
	"fmt"
	"reflect"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/stats"
)

// E16 measures the pulse-run batch fast path (DESIGN.md §8.3) and
// certifies that coalescing is a pure performance transformation.
//
// E16a is the scale sweep: Algorithm 2 over consecutive IDs — the
// Θ(n·ID_max) = Θ(n²) regime that is out of reach pulse by pulse —
// under sim.WithBatching and the Heaviest scheduler. The table reports the transition count next to the exact
// pulse count: conservation (pulses = n(2n+1), Theorem 1 verbatim) is
// unchanged by batching, while transitions fall by the coalescing
// factor, which grows with n as Heaviest's backlog-first sweeps form
// ring-sized runs. (The in-test sweep stops at n=16384 to stay fast;
// EXPERIMENTS.md records the n=10⁶ cmd/ringsim run of the same
// workload: 2,000,001,000,000 pulses in 28.0M transitions.)
//
// E16b is the schedule-dependence panel: the same election under the
// batched engine with the canonical (oldest-first, breadth-first)
// scheduler versus Heaviest. Pulse totals and the elected leader are
// schedule-invariant; the coalescing factor is not — canonical keeps
// every queue shallow and caps near 3x, which is why heaviest is the
// production batch configuration. Both rows must match the plain
// sequential engine's outcome exactly.
func E16(seed int64) ([]*stats.Table, error) {
	sweep, err := e16Sweep(seed)
	if err != nil {
		return nil, err
	}
	sched, err := e16Schedule(seed)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{sweep, sched}, nil
}

// outcome is the schedule-invariant slice of a Result: the election
// outcome and the exact pulse totals, excluding order-dependent fields
// (TerminationOrder) that legitimately vary across schedules.
type outcome struct {
	leader   int
	leaders  []int
	statuses []node.Status
	sent     uint64
	quiesc   bool
}

func outcomeOf(r sim.Result) outcome {
	return outcome{
		leader:   r.Leader,
		leaders:  r.Leaders,
		statuses: r.Statuses,
		sent:     r.Sent,
		quiesc:   r.Quiescent,
	}
}

// e16Run executes one batched flat-bank Alg2 election and returns the
// result plus the transition counters.
func e16Run(n int, schedName string, seed int64) (sim.Result, uint64, uint64, error) {
	topo, err := ring.Oriented(n)
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	bank, err := core.NewFlatAlg2(topo, ring.ConsecutiveIDs(n))
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	s, err := sim.NewFlat[pulse.Pulse](topo, bank, sim.Stock(seed)[schedName],
		sim.WithBatching())
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	pred := core.PredictedAlg2Pulses(n, uint64(n))
	res, err := s.Run(4*pred + 1024)
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	transitions, multi := s.RunsCoalesced()
	return res, transitions, multi, nil
}

func e16Sweep(seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		"E16a — batched scale sweep: Algorithm 2 over consecutive IDs conserves n(2n+1) pulses exactly while transitions fall by the coalescing factor",
		"n", "pulses", "n(2n+1) exact", "transitions", "multi-pulse", "coalescing", "terminated")
	for _, n := range []int{1024, 4096, 16384} {
		pred := core.PredictedAlg2Pulses(n, uint64(n))
		res, transitions, multi, err := e16Run(n, "heaviest", seed)
		if err != nil {
			return nil, fmt.Errorf("E16a n=%d: %w", n, err)
		}
		exact := "yes"
		if res.Sent != pred {
			exact = "NO"
		}
		factor := float64(res.Delivered) / float64(transitions)
		t.AddRow(n, res.Sent, exact, transitions, multi,
			stats.FormatFloat(factor)+"x", res.AllTerminated)
	}
	return t, nil
}

func e16Schedule(seed int64) (*stats.Table, error) {
	const n = 1024
	t := stats.NewTable(
		"E16b — coalescing is schedule-dependent, pulse totals are not: canonical's breadth-first order caps near 3x where heaviest sweeps ring-sized runs",
		"n", "scheduler", "pulses", "leader", "transitions", "coalescing", "matches plain sequential")

	// The plain (unbatched) sequential engine is the outcome oracle.
	topo, err := ring.Oriented(n)
	if err != nil {
		return nil, err
	}
	ms, err := core.Alg2Machines(topo, ring.ConsecutiveIDs(n))
	if err != nil {
		return nil, err
	}
	plain, err := sim.New(topo, ms, sim.Canonical{})
	if err != nil {
		return nil, err
	}
	pred := core.PredictedAlg2Pulses(n, uint64(n))
	plainRes, err := plain.Run(4*pred + 1024)
	if err != nil {
		return nil, fmt.Errorf("E16b sequential: %w", err)
	}
	want := outcomeOf(plainRes)

	for _, schedName := range []string{"canonical", "heaviest"} {
		res, transitions, _, err := e16Run(n, schedName, seed)
		if err != nil {
			return nil, fmt.Errorf("E16b %s: %w", schedName, err)
		}
		match := "yes"
		if !reflect.DeepEqual(outcomeOf(res), want) {
			match = "NO"
		}
		factor := float64(res.Delivered) / float64(transitions)
		t.AddRow(n, schedName, res.Sent, res.Leader, transitions,
			stats.FormatFloat(factor)+"x", match)
	}
	return t, nil
}
