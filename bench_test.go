package coleader_test

// One benchmark per experiment of EXPERIMENTS.md (E1..E9). Each reports
// pulses/op (the paper's own cost metric) alongside Go's time/allocs, so
// `go test -bench=. -benchmem` regenerates the cost series of every claim.

import (
	"fmt"
	"math/rand"
	"testing"

	"coleader"
	"coleader/internal/baseline"
	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/defective"
	"coleader/internal/fault"
	"coleader/internal/live"
	"coleader/internal/lowerbound"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// BenchmarkAlg2Oriented is E1's regenerator: Theorem 1 cost across ring
// sizes (IDs 1..n, so pulses/op = n(2n+1)). It runs the pulse-run batch
// fast path under the Heaviest scheduler — the production scale
// configuration (DESIGN.md §8.3): counted runs make a transition O(1)
// in the run length, and Heaviest's deepest-backlog-first pick is the
// schedule under which runs actually form (canonical's breadth-first
// order caps coalescing near 3x). Pulse totals are schedule-invariant,
// so the conservation check against the Theorem 1 prediction is exact
// here too. BenchmarkAlg2FlatOriented keeps the plain pulse-by-pulse
// engine measurable.
//
// One untimed warmup election runs before the clock starts: this is the
// first benchmark in the suite, and in a fresh process the GC pacer's
// heap target is still tiny, which inflates the first few elections by
// 30-50% at millisecond op times (invisible back when an op took ~100ms,
// a systematic bias now). The warmup grows the pacer to its steady
// state so every label — 100ms ci samples included — measures the same
// thing.
func BenchmarkAlg2Oriented(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo, err := ring.Oriented(n)
			if err != nil {
				b.Fatal(err)
			}
			ids := ring.ConsecutiveIDs(n)
			pred := core.PredictedAlg2Pulses(n, uint64(n))
			if ms, err := core.Alg2Machines(topo, ids); err == nil {
				if s, err := sim.New(topo, ms, sim.Heaviest{}, sim.WithBatching()); err == nil {
					if _, err := s.Run(4*pred + 1024); err != nil {
						b.Fatal(err)
					}
				}
			}
			var pulses uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := core.Alg2Machines(topo, ids)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(topo, ms, sim.Heaviest{}, sim.WithBatching())
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
				pulses += res.Sent
			}
			b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
		})
	}
}

// BenchmarkAlg2IDMax is E1's other axis: cost vs ID_max at fixed n, the
// signature Theta(n·ID_max) dependence.
func BenchmarkAlg2IDMax(b *testing.B) {
	const n = 8
	for _, idMax := range []uint64{8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("idmax=%d", idMax), func(b *testing.B) {
			topo, err := ring.Oriented(n)
			if err != nil {
				b.Fatal(err)
			}
			ids, err := ring.AdversarialIDs(n, idMax)
			if err != nil {
				b.Fatal(err)
			}
			pred := core.PredictedAlg2Pulses(n, idMax)
			var pulses uint64
			for i := 0; i < b.N; i++ {
				ms, err := core.Alg2Machines(topo, ids)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(topo, ms, sim.Canonical{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(4*pred + 1024)
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Sent
			}
			b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
		})
	}
}

// BenchmarkAlg3NonOriented is E2's regenerator: both virtual-ID schemes on
// randomly flipped rings.
func BenchmarkAlg3NonOriented(b *testing.B) {
	for _, scheme := range []core.IDScheme{core.SchemeSuccessor, core.SchemeDoubled} {
		for _, n := range []int{8, 64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", scheme, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				topo, err := ring.RandomNonOriented(n, rng)
				if err != nil {
					b.Fatal(err)
				}
				ids := ring.PermutedIDs(n, rng)
				pred := core.PredictedAlg3Pulses(n, uint64(n), scheme)
				var pulses uint64
				for i := 0; i < b.N; i++ {
					ms, err := core.Alg3Machines(n, ids, scheme)
					if err != nil {
						b.Fatal(err)
					}
					s, err := sim.New(topo, ms, sim.NewRandom(int64(i)))
					if err != nil {
						b.Fatal(err)
					}
					res, err := s.Run(4*pred + 1024)
					if err != nil {
						b.Fatal(err)
					}
					pulses += res.Sent
				}
				b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
			})
		}
	}
}

// BenchmarkAnonymous is E3's regenerator: the full Theorem 3 pipeline
// (Algorithm 4 sampling + Algorithm 3 election), skipping heavy-tail
// draws exactly as the experiment does.
func BenchmarkAnonymous(b *testing.B) {
	const n, c = 8, 1.0
	rng := rand.New(rand.NewSource(2))
	var pulses, ran uint64
	for i := 0; i < b.N; i++ {
		ids := core.SampleIDs(rng, n, c)
		pred := core.PredictedAlg3Pulses(n, ring.MaxID(ids), core.SchemeSuccessor)
		if pred > 1_000_000 {
			continue
		}
		topo, err := ring.RandomNonOriented(n, rng)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := core.Alg3Machines(n, ids, core.SchemeSuccessor)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.NewRandom(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			b.Fatal(err)
		}
		pulses += res.Sent
		ran++
	}
	if ran > 0 {
		b.ReportMetric(float64(pulses)/float64(ran), "pulses/election")
	}
}

// BenchmarkAlg1Geometric is E15's scale axis: Algorithm 1 with
// geometric ID values (ID_max concentrates around 4·log2 n, duplicates
// tolerated per Lemma 16), the regime where million-node rings cost
// Theta(n log n) pulses. The sub-benchmark name pins the configuration
// E15 runs: the sequential engine over a flat bank with the batch fast
// path and the Heaviest scheduler. Every op must cost exactly
// n·ID_max pulses (Corollary 13).
func BenchmarkAlg1Geometric(b *testing.B) {
	const n = 65536
	b.Run(fmt.Sprintf("engine=seq/batch/sched=heaviest/n=%d", n), func(b *testing.B) {
		topo, err := ring.Oriented(n)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = 1 + uint64(core.SampleBitCount(rng, 2))
		}
		pred := core.PredictedAlg1Pulses(n, ring.MaxID(ids))
		var pulses uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bank, err := core.NewFlatAlg1(topo, ids)
			if err != nil {
				b.Fatal(err)
			}
			s, err := sim.NewFlat(topo, bank, sim.Heaviest{}, sim.WithBatching())
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(4*pred + 1024)
			if err != nil {
				b.Fatal(err)
			}
			if res.Sent != pred {
				b.Fatalf("pulses %d != predicted n·ID_max = %d", res.Sent, pred)
			}
			pulses += res.Sent
		}
		b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
	})
}

// BenchmarkAlg2FlatOriented isolates the FlatAlg2 machine bank on the
// sequential engine at E1's largest size: the delta against
// BenchmarkAlg2Oriented/n=512 is the pointer-machine overhead alone.
func BenchmarkAlg2FlatOriented(b *testing.B) {
	const n = 512
	topo, err := ring.Oriented(n)
	if err != nil {
		b.Fatal(err)
	}
	ids := ring.ConsecutiveIDs(n)
	pred := core.PredictedAlg2Pulses(n, uint64(n))
	var pulses uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bank, err := core.NewFlatAlg2(topo, ids)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.NewFlat(topo, bank, sim.Canonical{})
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
		pulses += res.Sent
	}
	b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
}

// BenchmarkSolitude is E4's regenerator: solitude-pattern extraction cost
// across the ID range whose uniqueness Lemma 22 asserts.
func BenchmarkSolitude(b *testing.B) {
	mk := func(id uint64) (node.PulseMachine, error) { return core.NewAlg2(id, pulse.Port1) }
	for _, id := range []uint64{16, 256, 4096} {
		b.Run(fmt.Sprintf("id=%d", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := lowerbound.Solitude(mk, id, 16*id+1024)
				if err != nil {
					b.Fatal(err)
				}
				if uint64(p.Len()) != 2*id+1 {
					b.Fatalf("pattern length %d", p.Len())
				}
			}
			b.ReportMetric(float64(2*id+1), "pulses/op")
		})
	}
}

// BenchmarkAlg1Invariants is E5's regenerator: Algorithm 1 with the
// Lemma 6 checker evaluating every node after every event.
func BenchmarkAlg1Invariants(b *testing.B) {
	const n = 16
	ids := ring.ConsecutiveIDs(n)
	topo, err := ring.Oriented(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ms, err := core.Alg1Machines(topo, ids)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.NewRandom(int64(i)),
			sim.WithObserver[pulse.Pulse](alg1Checker{idMax: uint64(n)}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// alg1Checker avoids importing internal/trace into the root test package's
// public-API surface... it simply delegates; kept minimal.
type alg1Checker struct{ idMax uint64 }

func (c alg1Checker) OnEvent(_ *sim.Event, s *sim.Sim[pulse.Pulse]) error {
	for k := 0; k < s.Topology().N(); k++ {
		a := s.Machine(k).(*core.Alg1)
		rho, sig := a.RhoCW(), a.SigCW()
		if sig == 0 && rho == 0 {
			continue
		}
		if rho < a.ID() && sig != rho+1 || rho >= a.ID() && sig != rho {
			return fmt.Errorf("Lemma 6 violated at node %d", k)
		}
	}
	return nil
}

// BenchmarkBaselines is E6's regenerator: the four classical algorithms on
// identical rings.
func BenchmarkBaselines(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(3))
	ids := ring.PermutedIDs(n, rng)
	topo, err := ring.Oriented(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range baseline.Algorithms() {
		a := a
		b.Run(string(a), func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				res, err := baseline.Run(a, topo, ids, sim.NewRandom(int64(i)), 1<<22)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Sent
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "messages/op")
		})
	}
}

// BenchmarkDefectiveCompute is E7's regenerator: the full Corollary 5
// pipeline with max-consensus.
func BenchmarkDefectiveCompute(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			ids := ring.PermutedIDs(n, rng)
			inputs := make([]uint64, n)
			for i := range inputs {
				inputs[i] = uint64(rng.Intn(50))
			}
			var pulses uint64
			for i := 0; i < b.N; i++ {
				apps := make([]coleader.App, n)
				for k := range apps {
					apps[k] = defective.NewRingMax(inputs[k])
				}
				res, err := coleader.Compute(ids, apps, coleader.WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Pulses
			}
			b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
		})
	}
}

// BenchmarkProp19 is E8's regenerator: the resampling variant under
// collision pressure.
func BenchmarkProp19(b *testing.B) {
	const n, idMax = 8, 256
	rng := rand.New(rand.NewSource(5))
	ids := make([]uint64, n)
	for j := range ids {
		ids[j] = 1 + uint64(rng.Intn(3))
	}
	ids[0] = idMax
	topo, err := ring.RandomNonOriented(n, rng)
	if err != nil {
		b.Fatal(err)
	}
	pred := core.PredictedAlg3Pulses(n, idMax, core.SchemeSuccessor)
	for i := 0; i < b.N; i++ {
		ms, err := core.Alg3ResampleMachines(n, ids, core.SchemeSuccessor, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.NewRandom(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(4*pred + 1024); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pred), "pulses/op")
}

// BenchmarkExhaustive is E9's regenerator: full schedule-space exploration
// of a 3-node Algorithm 2 instance.
func BenchmarkExhaustive(b *testing.B) {
	ids := []uint64{3, 1, 2}
	topo, err := ring.Oriented(3)
	if err != nil {
		b.Fatal(err)
	}
	var states int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := check.Exhaustive(check.Config{
			Topo:        topo,
			NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) },
		})
		if err != nil {
			b.Fatal(err)
		}
		states = rep.StatesVisited
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkExhaustiveFaults is E17's regenerator: the fault-aware
// explorer over the conserving classes (loss, crash, corrupt) on the
// 3-ring, budget 1 — a finite space enumerated completely every op. The
// per-state cost over BenchmarkExhaustive prices the fault key folding
// (crash bits, window counters, injection log) and the injection
// branching.
func BenchmarkExhaustiveFaults(b *testing.B) {
	ids := []uint64{3, 1, 2}
	topo, err := ring.Oriented(3)
	if err != nil {
		b.Fatal(err)
	}
	plan := fault.Plan{
		Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt),
		Budget:  1,
	}
	var states int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := check.ExhaustiveFaults(check.Config{
			Topo:        topo,
			NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) },
		}, plan)
		if err != nil {
			b.Fatal(err)
		}
		states = rep.StatesVisited
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkExhaustiveFaultsCensus is the election ledger's census
// workload: the fault-aware explorer over loss, crash and corrupt,
// budget 1, on the 7-node ring 7 1 6 2 5 3 4 (582,051 states). Unlike
// BenchmarkExhaustiveFaults's 1,677 states, its fingerprint memo grows
// to megabytes and leaves the cache, so this is the size at which the
// memo's layout shows.
func BenchmarkExhaustiveFaultsCensus(b *testing.B) {
	ids := []uint64{7, 1, 6, 2, 5, 3, 4}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		b.Fatal(err)
	}
	plan := fault.Plan{
		Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt),
		Budget:  1,
	}
	var states int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := check.ExhaustiveFaults(check.Config{
			Topo:        topo,
			NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) },
		}, plan)
		if err != nil {
			b.Fatal(err)
		}
		states = rep.StatesVisited
	}
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*states), "ns/state")
}

// BenchmarkUniversalTransport measures the full-strength Corollary 5
// stack (E7's extension): Chang–Roberts running over the chunked defective
// transport after an Algorithm 2 election, per ring size.
func BenchmarkUniversalTransport(b *testing.B) {
	for _, n := range []int{3, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			transportIDs := ring.PermutedIDs(n, rng)
			appIDs := ring.PermutedIDs(n, rng)
			var pulses uint64
			for i := 0; i < b.N; i++ {
				apps := make([]coleader.App, n)
				for k := range apps {
					app, err := coleader.AdaptBaseline(coleader.ChangRoberts, appIDs[k])
					if err != nil {
						b.Fatal(err)
					}
					apps[k] = app
				}
				res, err := coleader.Compute(transportIDs, apps, coleader.WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				pulses += res.Pulses
			}
			b.ReportMetric(float64(pulses)/float64(b.N), "pulses/op")
		})
	}
}

// BenchmarkItaiRodeh measures the known-n anonymous randomized election
// (E11's content-carrying side).
func BenchmarkItaiRodeh(b *testing.B) {
	const n = 32
	topo, err := ring.Oriented(n)
	if err != nil {
		b.Fatal(err)
	}
	ports := make([]pulse.Port, n)
	for k := range ports {
		ports[k] = topo.CWPort(k)
	}
	var msgs uint64
	for i := 0; i < b.N; i++ {
		ms, err := baseline.ItaiRodehMachines(n, ports, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(topo, ms, sim.NewRandom(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(1 << 22)
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Sent
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "messages/op")
}

// BenchmarkLiveRuntime measures the goroutine-per-node runtime against the
// simulator on the same workload (not tied to a table; a cross-runtime
// sanity series).
func BenchmarkLiveRuntime(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo, err := ring.Oriented(n)
			if err != nil {
				b.Fatal(err)
			}
			ids := ring.ConsecutiveIDs(n)
			pred := core.PredictedAlg2Pulses(n, uint64(n))
			for i := 0; i < b.N; i++ {
				ms, err := core.Alg2Machines(topo, ids)
				if err != nil {
					b.Fatal(err)
				}
				res, err := live.Run(topo, ms)
				if err != nil {
					b.Fatal(err)
				}
				if res.Sent != pred {
					b.Fatalf("pulses %d != %d", res.Sent, pred)
				}
			}
			b.ReportMetric(float64(pred), "pulses/op")
		})
	}
}
