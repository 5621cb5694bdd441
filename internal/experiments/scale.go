package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"coleader/internal/core"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/stats"
	"coleader/internal/xrand"
)

// E15 measures Algorithm 1 at scale on the simulator's production
// configuration: a flat machine bank, the pulse-run batch fast
// path, and the Heaviest scheduler.
//
// The sweep runs Algorithm 1 over geometric ID values (ID_max
// concentrates around (c+2)·log2 n, duplicates tolerated per Lemma 16).
// Corollary 13 says the run costs exactly n·ID_max pulses under every
// schedule, which makes the sampled-ID election Theta(n log n) and
// million-node rings feasible. The fit column divides measured pulses
// by n·log2 n; a flat constant across three orders of magnitude is the
// claimed growth rate. The transitions and coalescing columns show what
// batching saves: the engine's cost, not the pulse count. (The in-test
// sweep stops at n=65536 to stay fast; EXPERIMENTS.md records the n=10^6
// cmd/ringsim run of the same workload.)
func E15(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E15a — scale sweep: Algorithm 1 over geometric IDs costs exactly n·ID_max = Theta(n log n) pulses",
		"n", "ID_max", "pulses", "n·ID_max exact", "pulses/(n·log2 n)", "transitions", "coalescing", "quiescent")
	for _, n := range []int{1024, 8192, 65536} {
		rng := rand.New(rand.NewSource(xrand.Split(seed, 0xE15A, uint64(n))))
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = 1 + uint64(core.SampleBitCount(rng, 2))
		}
		idMax := ring.MaxID(ids)
		pred := core.PredictedAlg1Pulses(n, idMax)
		topo, err := ring.Oriented(n)
		if err != nil {
			return nil, err
		}
		bank, err := core.NewFlatAlg1(topo, ids)
		if err != nil {
			return nil, err
		}
		s, err := sim.NewFlat(topo, bank, sim.Heaviest{}, sim.WithBatching())
		if err != nil {
			return nil, err
		}
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			return nil, fmt.Errorf("E15a n=%d: %w", n, err)
		}
		transitions, _ := s.RunsCoalesced()
		exact := "yes"
		if res.Sent != pred {
			exact = "NO"
		}
		fit := float64(res.Sent) / (float64(n) * math.Log2(float64(n)))
		factor := float64(res.Delivered) / float64(transitions)
		t.AddRow(n, idMax, res.Sent, exact, stats.FormatFloat(fit), transitions,
			stats.FormatFloat(factor)+"x", res.Quiescent)
	}
	return []*stats.Table{t}, nil
}
