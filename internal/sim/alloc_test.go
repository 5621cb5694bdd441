package sim_test

import (
	"testing"

	"coleader/internal/core"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// TestRunAllocsWithoutObserver asserts the hot path stays allocation-free
// when no observer is attached, on both machine representations: a full
// n=64 Algorithm 2 election delivers 8256 pulses, so the bound below
// (1000 allocations for construction plus the entire run) can only hold
// if the per-delivery cost is zero — Event records, per-step deliverable
// slices, or queue-tail reslicing would each blow through it by an order
// of magnitude.
func TestRunAllocsWithoutObserver(t *testing.T) {
	const n = 64
	ids := ring.ConsecutiveIDs(n)
	build := map[string]func(ring.Topology) (*sim.Sim[pulse.Pulse], error){
		"pointer": func(topo ring.Topology) (*sim.Sim[pulse.Pulse], error) {
			ms, err := core.Alg2Machines(topo, ids)
			if err != nil {
				return nil, err
			}
			return sim.New(topo, ms, sim.Canonical{})
		},
		"flat": func(topo ring.Topology) (*sim.Sim[pulse.Pulse], error) {
			bank, err := core.NewFlatAlg2(topo, ids)
			if err != nil {
				return nil, err
			}
			return sim.NewFlat(topo, bank, sim.Canonical{})
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
			run := func() {
				topo, err := ring.Oriented(n)
				if err != nil {
					t.Fatal(err)
				}
				s, err := mk(topo)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(4*pred + 1024)
				if err != nil {
					t.Fatal(err)
				}
				if res.Sent != pred {
					t.Fatalf("sent %d pulses, want %d", res.Sent, pred)
				}
			}
			allocs := testing.AllocsPerRun(3, run)
			if allocs > 1000 {
				t.Fatalf("construction + %d-pulse run allocated %.0f objects, want <= 1000 (hot path must not allocate)",
					pred, allocs)
			}
		})
	}
}
