package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// lazyProbe hints every head-keyed heap kind but picks a uniformly
// random deliverable channel by scan. It consults heap i only on the
// calls where calls%k == i, so between consults stale entries pile up
// until auxPush compacts the heap, and once more right after each
// compaction, which shows up as a heap shorter than at the previous
// call. Every consult must return the pick of the kind's own
// Deliverable() scan.
type lazyProbe struct {
	t     *testing.T
	rng   *rand.Rand
	k     uint64
	calls uint64
	hints []HeapHint
	last  []int // each heap's length after the previous call
}

var errOverBound = errors.New("lazy heap over its bound")

func probeRank(c int, seq uint64) uint64 { return (seq*0x9e3779b97f4a7c15 ^ uint64(c)) >> 59 }

func newLazyProbe(t *testing.T, seed int64, k uint64) *lazyProbe {
	hints := []HeapHint{
		{Kind: HeapOldest},
		{Kind: HeapNewest, Dir: pulse.CCW}, // Dir is ignored outside HeapDirOldest
		{Kind: HeapDirOldest, Dir: pulse.CW},
		{Kind: HeapDirOldest, Dir: pulse.CCW},
		{Kind: HeapRank, Rank: probeRank},
	}
	return &lazyProbe{t: t, rng: rand.New(rand.NewSource(seed)), k: k, hints: hints, last: make([]int, len(hints))}
}

func (p *lazyProbe) HeapHints() []HeapHint { return p.hints }

func (p *lazyProbe) Next(v View) int {
	ds := v.Deliverable()
	s := v.(*view[pulse.Pulse]).s
	for i, h := range p.hints {
		a := &s.aux[i]
		if p.calls%p.k == uint64(i) || len(a.h) < p.last[i] {
			got, ok := v.(HeapView).HeapBest(h.Kind, h.Dir)
			if want := scanPick(v, ds, h); !ok || got != want {
				p.t.Fatalf("call %d: HeapBest(%d, %s) = %d, %v; scan picks %d", p.calls, h.Kind, h.Dir, got, ok, want)
			}
		}
		p.last[i] = len(a.h)
	}
	p.calls++
	return ds[p.rng.Intn(len(ds))]
}

// scanPick is the reference pick of hint h's kind over ds: the first
// channel, in ascending id order, with the smallest key among the
// channels the kind covers; -1 when it covers none.
func scanPick(v View, ds []int, h HeapHint) int {
	best, bestKey := -1, uint64(0)
	for _, c := range ds {
		if h.Kind == HeapDirOldest && v.Direction(c) != h.Dir {
			continue
		}
		key := v.HeadSeq(c)
		switch h.Kind {
		case HeapNewest:
			key = ^key
		case HeapRank:
			key = h.Rank(c, key)
		}
		if best < 0 || key < bestKey {
			best, bestKey = c, key
		}
	}
	return best
}

// churn is a relay that keeps channels of both directions busy and
// flips its readiness: it sends three pulses at Init, relays each of
// its first budget arrivals out of the port its arrival count picks,
// and refuses the other port while that count is a multiple of three.
// A refused channel keeps its head, so it turns deliverable again with
// the head it had: the case a lazy heap's dedup marks must survive.
type churn struct{ seen, budget int }

func (m *churn) Init(e node.PulseEmitter) {
	e.Send(pulse.Port0, pulse.Pulse{})
	e.Send(pulse.Port1, pulse.Pulse{})
	e.Send(pulse.Port1, pulse.Pulse{})
}

func (m *churn) OnMsg(_ pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	m.seen++
	if m.seen <= m.budget {
		e.Send(pulse.Port(m.seen%2), pulse.Pulse{})
	}
}

func (m *churn) Ready(p pulse.Port) bool { return m.seen%3 != 0 || int(p) == m.seen%2 }
func (m *churn) Status() node.Status     { return node.Status{State: node.StateUndecided} }

// TestLazyHeapCompaction drives every head-keyed heap through runs in
// which it is consulted only every k-th step and right after each
// compaction, under seeded crash and spurious-pulse planes that leave
// channels undeliverable and inject traffic: Algorithm 2, Algorithm 3
// on a non-oriented ring, and churn, whose readiness flips. After every
// step each lazy heap must hold at most 2·channels+64 entries, and
// every heap must reach that bound at least once over the runs, so
// auxCompact's rebuild (with its deliverability and direction filters,
// its mark reset and every kind's key) is what keeps it there.
func TestLazyHeapCompaction(t *testing.T) {
	type instance struct {
		name     string
		topo     func(*rand.Rand) (ring.Topology, error)
		machines func(ring.Topology, []uint64) ([]node.PulseMachine, error)
	}
	instances := []instance{
		{"alg2", func(*rand.Rand) (ring.Topology, error) { return ring.Oriented(8) }, core.Alg2Machines},
		{"alg3", func(rng *rand.Rand) (ring.Topology, error) { return ring.RandomNonOriented(8, rng) },
			func(topo ring.Topology, ids []uint64) ([]node.PulseMachine, error) {
				return core.Alg3Machines(topo.N(), ids, core.SchemeSuccessor)
			}},
		{"churn", func(rng *rand.Rand) (ring.Topology, error) { return ring.RandomNonOriented(8, rng) },
			func(topo ring.Topology, ids []uint64) ([]node.PulseMachine, error) {
				ms := make([]node.PulseMachine, topo.N())
				for k := range ms {
					ms[k] = &churn{budget: 20 * int(ids[k])}
				}
				return ms, nil
			}},
	}
	reached := make([]bool, 5)
	for _, inst := range instances {
		for seed := int64(1); seed <= 8; seed++ {
			for _, k := range []uint64{5, 300} {
				t.Run(fmt.Sprintf("%s/seed=%d/k=%d", inst.name, seed, k), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					topo, err := inst.topo(rng)
					if err != nil {
						t.Fatal(err)
					}
					ids, err := ring.AdversarialIDs(topo.N(), 60)
					if err != nil {
						t.Fatal(err)
					}
					rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
					ms, err := inst.machines(topo, ids)
					if err != nil {
						t.Fatal(err)
					}
					plane, err := fault.New(seed, fault.Config{
						Nodes: topo.N(), Classes: fault.NewSet(fault.Crash, fault.Spurious), Budget: 2, Horizon: 400,
					})
					if err != nil {
						t.Fatal(err)
					}
					bound := 2*2*topo.N() + 64
					check := ObserverFunc[pulse.Pulse](func(_ *Event, s *Sim[pulse.Pulse]) error {
						for i := range s.aux {
							if l := len(s.aux[i].h); l > bound {
								return fmt.Errorf("%w: step %d: heap %d holds %d entries, bound %d", errOverBound, s.step, i, l, bound)
							} else if l == bound {
								reached[i] = true
							}
						}
						return nil
					})
					s, err := New(topo, ms, newLazyProbe(t, seed, k),
						WithObserver[pulse.Pulse](check), WithFaultPlane[pulse.Pulse](plane))
					if err != nil {
						t.Fatal(err)
					}
					if len(s.aux) != 5 {
						t.Fatalf("%d lazy heaps installed, want 5", len(s.aux))
					}
					// Crashes may stall the election; only the heaps are checked.
					if _, err := s.Run(1 << 15); errors.Is(err, errOverBound) {
						t.Fatal(err)
					}
				})
			}
		}
	}
	for i, ok := range reached {
		if !ok {
			t.Errorf("heap %d never reached its compaction bound", i)
		}
	}
}

// TestCompactionSkipsEmptyHeads: auxCompact can fire from an enqueue
// inside a delivery's flush, while the channel that delivery popped
// empty is still in the deliverable set. It must not register that
// channel's missing head. Under lazyProbe on Algorithm 3, after every
// step, no sequence-keyed heap may hold an entry keyed for head seq 0,
// which no queued message carries. (HeapRank's probe keys collide with
// real heads, so that heap is not checked.)
func TestCompactionSkipsEmptyHeads(t *testing.T) {
	errSeqZero := errors.New("aux heap holds a head-seq-0 entry")
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			topo, err := ring.RandomNonOriented(8, rng)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := ring.AdversarialIDs(topo.N(), 60)
			if err != nil {
				t.Fatal(err)
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ms, err := core.Alg3Machines(topo.N(), ids, core.SchemeSuccessor)
			if err != nil {
				t.Fatal(err)
			}
			check := ObserverFunc[pulse.Pulse](func(_ *Event, s *Sim[pulse.Pulse]) error {
				for i := range s.aux {
					a := &s.aux[i]
					if a.Kind == HeapRank {
						continue
					}
					for _, e := range a.h {
						if e.key == a.keyOf(e.c, 0) {
							return fmt.Errorf("%w: step %d: heap %d, channel %d", errSeqZero, s.step, i, e.c)
						}
					}
				}
				return nil
			})
			s, err := New(topo, ms, newLazyProbe(t, seed, 5), WithObserver[pulse.Pulse](check))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(1 << 15); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// scanCounter is the simulator's view with its Deliverable() calls
// counted.
type scanCounter struct {
	*view[pulse.Pulse]
	scans int
}

func (v *scanCounter) Deliverable() []int {
	v.scans++
	return v.view.Deliverable()
}

// TestStockPicksSkipTheScan: every stock scheduler but roundrobin hints
// the heaps its picks read (or picks through WeightedView), so a whole
// election runs without a single Deliverable() scan. A missing hint
// changes no pick, only its cost, so the differentials cannot see it.
func TestStockPicksSkipTheScan(t *testing.T) {
	const n = 8
	for name := range Stock(1) {
		if name == "roundrobin" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			topo, err := ring.Oriented(n)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := core.Alg2Machines(topo, ring.ConsecutiveIDs(n))
			if err != nil {
				t.Fatal(err)
			}
			sched := Stock(1)[name]
			s, err := New(topo, ms, sched)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				if err := s.InitNode(k); err != nil {
					t.Fatal(err)
				}
			}
			v := &scanCounter{view: &view[pulse.Pulse]{s: s}}
			for s.delivCount > 0 {
				if err := s.Deliver(sched.Next(v)); err != nil {
					t.Fatal(err)
				}
			}
			if !s.Quiescent() || v.scans != 0 {
				t.Fatalf("quiescent=%v after %d scans, want quiescent after none", s.Quiescent(), v.scans)
			}
		})
	}
}
