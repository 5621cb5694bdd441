package sim_test

import (
	"slices"
	"testing"

	"coleader/internal/core"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// BenchmarkStockSchedulers times one Algorithm 2 election, oriented,
// n=256, consecutive IDs, pointer machines, under each stock scheduler:
// the pick layer per heap kind (HeapOldest for canonical and, in part,
// cw-first, ccw-first and flaky; HeapNewest, HeapDirOldest, HeapRank and
// HeapHeaviest) against the scans and the Fenwick pick at one pulse
// total.
func BenchmarkStockSchedulers(b *testing.B) {
	const n = 256
	topo, err := ring.Oriented(n)
	if err != nil {
		b.Fatal(err)
	}
	ids := ring.ConsecutiveIDs(n)
	pred := core.PredictedAlg2Pulses(n, uint64(n))
	names := make([]string, 0, 9)
	for name := range sim.Stock(1) {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ms, err := core.Alg2Machines(topo, ids)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(topo, ms, sim.Stock(1)[name])
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(4*pred + 1024)
				if err != nil {
					b.Fatal(err)
				}
				if res.Sent != pred {
					b.Fatalf("pulses %d != predicted %d", res.Sent, pred)
				}
			}
			b.ReportMetric(float64(pred), "pulses/op")
		})
	}
}
