package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// TestFenwickPickMatchesScan: a tree built in one pass equals one grown
// weight by weight, and pick(x) is the channel the "x -= weight" scan
// stops at, for every x in [0, total).
func TestFenwickPickMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 100} {
		w := make([]int64, n)
		for c := range w {
			if rng.Intn(3) > 0 {
				w[c] = int64(rng.Intn(5))
			}
		}
		grown := newFenwick(make([]int64, n))
		for c, x := range w {
			grown.set(c, x)
		}
		built := newFenwick(append([]int64(nil), w...))
		if !reflect.DeepEqual(grown, built) {
			t.Fatalf("n=%d: built tree %+v != grown tree %+v", n, built, grown)
		}
		for x := int64(0); x < built.total; x++ {
			want, r := 0, x
			for r -= w[want]; r >= 0; r -= w[want] {
				want++
			}
			if got := built.pick(x); got != want {
				t.Fatalf("n=%d: pick(%d) = %d, scan stops at %d", n, x, got, want)
			}
		}
	}
}

// treeAudit is a scheduler wrapper that forwards Next and nothing else,
// like a tracing wrapper would. After every pick it checks the engine's
// incrementally kept tree against one built from scratch.
type treeAudit struct {
	inner Scheduler
	s     *Sim[pulse.Pulse]
	picks int
	err   error
}

func (a *treeAudit) Next(v View) int {
	c := a.inner.Next(v)
	a.picks++
	if a.err == nil && a.s.weights != nil {
		w := make([]int64, len(a.s.queues))
		for i := range w {
			w[i] = a.s.weight(i)
		}
		if fresh := newFenwick(w); !reflect.DeepEqual(fresh, a.s.weights) {
			a.err = fmt.Errorf("pick %d: kept tree %+v, rebuilt %+v", a.picks, a.s.weights, fresh)
		}
	}
	return c
}

// TestWeightedTreeKeptExact: Random behind a Next-only wrapper still
// gets the tree (it is built on the first weighted pick, with no hint to
// forward), the tree stays equal to a fresh build after every pick —
// plain, batched and under a firing fault plane — and rescan mode never
// builds one.
func TestWeightedTreeKeptExact(t *testing.T) {
	cases := []struct {
		name   string
		rescan bool
		build  func(sched Scheduler, opts ...Option[pulse.Pulse]) (*Sim[pulse.Pulse], error)
	}{
		{name: "alg3/non-oriented", build: func(sched Scheduler, opts ...Option[pulse.Pulse]) (*Sim[pulse.Pulse], error) {
			ms, err := core.Alg3Machines(6, []uint64{4, 1, 6, 2, 5, 3}, core.SchemeSuccessor)
			if err != nil {
				return nil, err
			}
			topo, err := ring.NonOriented([]bool{true, false, false, true, false, true})
			if err != nil {
				return nil, err
			}
			return New(topo, ms, sched, opts...)
		}},
		{name: "alg2/batched", build: func(sched Scheduler, opts ...Option[pulse.Pulse]) (*Sim[pulse.Pulse], error) {
			topo, err := ring.Oriented(8)
			if err != nil {
				return nil, err
			}
			bank, err := core.NewFlatAlg2(topo, []uint64{3, 8, 1, 6, 2, 7, 4, 5})
			if err != nil {
				return nil, err
			}
			return NewFlat(topo, bank, sched, append(opts, WithBatching())...)
		}},
		{name: "alg2/faulted", build: func(sched Scheduler, opts ...Option[pulse.Pulse]) (*Sim[pulse.Pulse], error) {
			topo, err := ring.Oriented(5)
			if err != nil {
				return nil, err
			}
			ms, err := core.Alg2Machines(topo, []uint64{3, 1, 4, 2, 5})
			if err != nil {
				return nil, err
			}
			plane, err := fault.New(3, fault.Config{Nodes: 5, Classes: fault.AllClasses, Budget: 4, Horizon: 6})
			if err != nil {
				return nil, err
			}
			return New(topo, ms, sched, append(opts, WithFaultPlane[pulse.Pulse](plane))...)
		}},
	}
	for _, tc := range cases {
		for _, rescan := range []bool{false, true} {
			for _, schedName := range []string{"random", "flaky"} {
				t.Run(fmt.Sprintf("%s/%s/rescan=%v", tc.name, schedName, rescan), func(t *testing.T) {
					audit := &treeAudit{inner: Stock(2)[schedName]}
					var opts []Option[pulse.Pulse]
					if rescan {
						opts = append(opts, WithRescanDeliverable[pulse.Pulse]())
					}
					s, err := tc.build(audit, opts...)
					if err != nil {
						t.Fatal(err)
					}
					audit.s = s
					if s.weights != nil {
						t.Fatal("tree built before the first pick")
					}
					s.Run(1 << 20) // a faulted run may end in an error; only the tree matters here
					if audit.err != nil {
						t.Fatal(audit.err)
					}
					if audit.picks == 0 {
						t.Fatal("no pick was made")
					}
					if built := s.weights != nil; built == rescan {
						t.Fatalf("tree built = %v in rescan = %v mode", built, rescan)
					}
				})
			}
		}
	}
}

var fenwickSink int

// BenchmarkFenwick times the tree alone: one set and one pick per
// iteration, on the channel counts of a 128- and a 65,536-node ring and
// on 200 channels, which the tree pads to 256. Channels, weights and
// draws cycle through a pre-drawn table, and each draw is scaled into
// [0, total) with a multiply and a shift, so the loop times the tree.
func BenchmarkFenwick(b *testing.B) {
	for _, n := range []int{128, 65536, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w := make([]int64, 2*n)
			for c := range w {
				w[c] = int64(rng.Intn(5))
			}
			f := newFenwick(w)
			const table = 1024
			var chans [table]int
			var weights [table]int64
			var draws [table]uint64
			for i := range chans {
				chans[i] = rng.Intn(2 * n)
				weights[i] = int64(1 + rng.Intn(4))
				draws[i] = uint64(rng.Uint32())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (table - 1)
				f.set(chans[j], weights[j])
				fenwickSink = f.pick(int64(draws[j] * uint64(f.total) >> 32))
			}
		})
	}
}
