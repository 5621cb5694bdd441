package sim_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"coleader/internal/core"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// BenchmarkQueueFootprint is the channel FIFO's per-layer benchmark: the
// live heap the simulator holds per node once New/NewFlat returns
// (B/node-new: queue headers, wiring, node state, heap indexes; the
// machine bank is built before and not counted) and what Run adds to it
// by quiescence (B/node-run: queued entries, heaps and the termination
// order; the returned Result is dropped first), what Run allocates in
// all (B/node-alloc: the TotalAlloc delta, growth garbage and the
// returned Result included), plus allocs/op of New and Run together.
// Live bytes are read with runtime.ReadMemStats after a forced GC,
// outside the timed region. The two configurations are the
// ledger's: elect-batch (Algorithm 2, 2^16 consecutive IDs, flat bank,
// Heaviest, batching) and elect-pulse (Algorithm 3, successor IDs,
// random non-oriented 128-ring, pointer machines, Random).
func BenchmarkQueueFootprint(b *testing.B) {
	configs := []struct {
		name string
		n    int
		// prepare builds the machines and returns the constructor of
		// the simulation over them.
		prepare func(n int, rng *rand.Rand) (func() (*sim.Sim[pulse.Pulse], error), error)
	}{
		{"elect-batch", 1 << 16, func(n int, _ *rand.Rand) (func() (*sim.Sim[pulse.Pulse], error), error) {
			topo, err := ring.Oriented(n)
			if err != nil {
				return nil, err
			}
			bank, err := core.NewFlatAlg2(topo, ring.ConsecutiveIDs(n))
			if err != nil {
				return nil, err
			}
			return func() (*sim.Sim[pulse.Pulse], error) {
				return sim.NewFlat[pulse.Pulse](topo, bank, sim.Heaviest{}, sim.WithBatching())
			}, nil
		}},
		{"elect-pulse", 128, func(n int, rng *rand.Rand) (func() (*sim.Sim[pulse.Pulse], error), error) {
			topo, err := ring.RandomNonOriented(n, rng)
			if err != nil {
				return nil, err
			}
			ms, err := core.Alg3Machines(n, ring.PermutedIDs(n, rng), core.SchemeSuccessor)
			if err != nil {
				return nil, err
			}
			seed := rng.Int63()
			return func() (*sim.Sim[pulse.Pulse], error) {
				return sim.New(topo, ms, sim.NewRandom(seed))
			}, nil
		}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			var m runtime.MemStats
			live := func() int64 {
				runtime.GC()
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			var newBytes, runBytes, runAlloc int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				build, err := cfg.prepare(cfg.n, rng)
				if err != nil {
					b.Fatal(err)
				}
				before := live()
				b.StartTimer()
				s, err := build()
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				built := live()
				allocBefore := m.TotalAlloc
				b.StartTimer()
				res, err := s.Run(math.MaxUint64)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if res.Leader < 0 {
					b.Fatalf("no unique leader: %v", res.Leaders)
				}
				ran := live()
				runtime.KeepAlive(s)
				newBytes += built - before
				runBytes += ran - built
				runAlloc += int64(m.TotalAlloc - allocBefore)
				b.StartTimer()
			}
			per := float64(b.N) * float64(cfg.n)
			b.ReportMetric(float64(newBytes)/per, "B/node-new")
			b.ReportMetric(float64(runBytes)/per, "B/node-run")
			b.ReportMetric(float64(runAlloc)/per, "B/node-alloc")
		})
	}
}
