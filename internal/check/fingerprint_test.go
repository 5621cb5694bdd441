package check

import (
	"bytes"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// relay forwards every pulse it receives until it has forwarded limit of
// them, then swallows the rest; node 0 starts the circulation. A minimal
// machine outside internal/core: its snapshot, and so its memo key, is
// its forward count alone.
type relay struct {
	start      bool
	fwd, limit uint64
}

func (r *relay) Init(e node.PulseEmitter) {
	if r.start {
		e.Send(pulse.Port1, pulse.Pulse{})
	}
}

func (r *relay) OnMsg(_ pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if r.fwd < r.limit {
		r.fwd++
		e.Send(pulse.Port1, pulse.Pulse{})
	}
}

func (r *relay) Ready(pulse.Port) bool        { return true }
func (r *relay) Status() node.Status          { return node.Status{} }
func (r *relay) SnapshotTo(buf []byte) []byte { return node.AppendKey64(buf, r.fwd) }
func (r *relay) Restore(snap []byte)          { r.fwd = node.Key64(snap) }

func relayMachines(n int) []node.PulseMachine {
	ms := make([]node.PulseMachine, n)
	for k := range ms {
		ms[k] = &relay{start: k == 0, limit: 2}
	}
	return ms
}

// fpCase is one exploration the kept-exact test walks.
type fpCase struct {
	name         string
	topo         func() (ring.Topology, error)
	machines     func(ring.Topology) ([]node.PulseMachine, error)
	exploreInits bool
	plan         fault.Plan
}

func fpCases() []fpCase {
	oriented := func(n int) func() (ring.Topology, error) {
		return func() (ring.Topology, error) { return ring.Oriented(n) }
	}
	alg2 := func(ids ...uint64) func(ring.Topology) ([]node.PulseMachine, error) {
		return func(topo ring.Topology) ([]node.PulseMachine, error) { return core.Alg2Machines(topo, ids) }
	}
	cases := []fpCase{
		{name: "alg1", topo: oriented(3), exploreInits: true,
			machines: func(topo ring.Topology) ([]node.PulseMachine, error) {
				return core.Alg1Machines(topo, []uint64{2, 1, 2})
			}},
		{name: "alg2", topo: oriented(3), machines: alg2(3, 1, 2), exploreInits: true},
		{name: "alg3", exploreInits: true,
			topo: func() (ring.Topology, error) { return ring.NonOriented([]bool{true, false, true}) },
			machines: func(ring.Topology) ([]node.PulseMachine, error) {
				return core.Alg3Machines(3, []uint64{2, 3, 1}, core.SchemeDoubled)
			}},
		{name: "alg3-resample", topo: oriented(3),
			machines: func(ring.Topology) ([]node.PulseMachine, error) {
				return core.Alg3ResampleMachines(3, []uint64{2, 6, 2}, core.SchemeSuccessor, 12345)
			}},
		{name: "relay", topo: oriented(3), exploreInits: true,
			machines: func(ring.Topology) ([]node.PulseMachine, error) { return relayMachines(3), nil }},
	}
	classes := []fault.Class{fault.Loss, fault.Dup, fault.Spurious, fault.Crash, fault.Restart, fault.Corrupt}
	for _, cl := range classes {
		cases = append(cases, fpCase{name: "alg2-" + cl.String(), topo: oriented(3), machines: alg2(2, 3, 1),
			plan: fault.Plan{Classes: fault.NewSet(cl), Budget: 1}})
	}
	return append(cases,
		fpCase{name: "alg2-crash-restart", topo: oriented(3), machines: alg2(2, 3, 1),
			plan: fault.Plan{Classes: fault.NewSet(fault.Crash, fault.Restart), Budget: 2}},
		fpCase{name: "alg2-windowed", topo: oriented(3), machines: alg2(2, 3, 1), exploreInits: true,
			plan: fault.Plan{Classes: fault.AllClasses, Budget: 1, Window: 1}},
	)
}

// TestIncrementalFingerprintExact: after every apply (successful or not)
// and every revert, the stepper's running component sum, its per-machine
// terms and the fingerprint built from them equal a from-scratch
// recomputation (componentSum, stateFingerprint) of the current state,
// and every revert restores the full state key the apply started from
// byte for byte, so undo is exact on the parts of the state the
// fingerprint only hashes (the fault section, crashed bits included).
// Each case walks its state graph depth-first, memoized, to a bounded
// depth and a bounded number of applied steps, so divergent fault classes
// stay finite and still branch at many injection positions.
func TestIncrementalFingerprintExact(t *testing.T) {
	const maxApplies, maxDepth = 20000, 30
	for _, c := range fpCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			topo, err := c.topo()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Topo:         topo,
				ExploreInits: c.exploreInits,
				NewMachines:  func() ([]node.PulseMachine, error) { return c.machines(topo) },
			}
			if c.plan.Active() {
				if cfg.plan, err = c.plan.Normalize(); err != nil {
					t.Fatal(err)
				}
			}
			root, _, err := buildRoot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp := &stepper{topo: topo, n: topo.N()}
			sp.reset(root)

			terms := make([]uint64, topo.N())
			var buf []byte
			same := func(when string) {
				t.Helper()
				var sum, fp uint64
				sum, buf = componentSum(sp.st, terms, buf)
				if sp.sum != sum {
					t.Fatalf("%s: running sum %#x, recomputed %#x", when, sp.sum, sum)
				}
				for k, want := range terms {
					if sp.terms[k] != want {
						t.Fatalf("%s: machine %d term %#x, recomputed %#x", when, k, sp.terms[k], want)
					}
				}
				fp, buf = stateFingerprint(sp.st, buf)
				if got := sp.fingerprint(); got != fp {
					t.Fatalf("%s: fingerprint %#x, recomputed %#x", when, got, fp)
				}
			}

			seen := map[uint64]bool{}
			applies, failed, faults := 0, 0, 0
			var walk func(depth int)
			walk = func(depth int) {
				fp := sp.fingerprint()
				if seen[fp] || applies >= maxApplies || depth > maxDepth {
					return
				}
				seen[fp] = true
				base, end := sp.pushChoices()
				if fx := sp.st.fx; fx != nil && len(fx.log) < fx.plan.Budget {
					end = sp.pushFaultChoices()
				}
				for i := base; i < end && applies < maxApplies; i++ {
					step := sp.stepAt(i)
					before := append([]byte(nil), sp.key()...)
					fr, err := sp.apply(step)
					applies++
					if step.Fault != 0 {
						faults++
					}
					same("after apply " + step.String())
					if err == nil {
						walk(depth + 1)
					} else {
						failed++
					}
					sp.revert(fr)
					same("after revert " + step.String())
					if !bytes.Equal(sp.key(), before) {
						t.Fatalf("revert of %v did not restore the state key", step)
					}
				}
				sp.popChoices(base)
			}
			same("root")
			walk(0)
			if c.plan.Active() && faults == 0 {
				t.Error("no fault step applied")
			}
			t.Logf("%d applies (%d failed, %d faults), %d states", applies, failed, faults, len(seen))
		})
	}
}

// censusStepper is the census workload's root: Algorithm 2 on IDs
// 7 1 6 2 5 3 4 with every node initialized and a loss/crash/corrupt
// budget-1 fault plane.
func censusStepper(b *testing.B) *stepper {
	b.Helper()
	topo, err := ring.Oriented(7)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.Plan{Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt), Budget: 1}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	root, _, err := buildRoot(Config{
		Topo:        topo,
		NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, []uint64{7, 1, 6, 2, 5, 3, 4}) },
		plan:        plan,
	})
	if err != nil {
		b.Fatal(err)
	}
	sp := &stepper{topo: topo, n: topo.N()}
	sp.reset(root)
	return sp
}

var fpSink uint64

// BenchmarkStateFingerprint prices the memo fingerprint of one visit on
// the 7-node census state. "incremental" is what a step adds under the
// kept component sum: re-encode and rehash the one machine the step ran,
// add the delivered channel's weight, and finish the fingerprint (which
// hashes the fault section). "rehash" is the full-key path it replaces:
// encode the whole state key and hash all of it.
func BenchmarkStateFingerprint(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		sp := censusStepper(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % sp.n
			sp.retally(k, int32(len(sp.sendArena)))
			sp.sum += chanWeight(2 * k)
			fpSink = sp.fingerprint()
			sp.sum -= chanWeight(2 * k)
		}
	})
	b.Run("rehash", func(b *testing.B) {
		sp := censusStepper(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fpSink = fingerprint(sp.key())
		}
	})
}

// BenchmarkMemoInsert times fpMemo.insert over the census's 582,051
// distinct states: "fill" inserts them all into a fresh table (growth
// included), "hit" re-inserts them into the full table, as a memo hit
// does. Fingerprints are SplitMix64 outputs, as uniform as real ones.
func BenchmarkMemoInsert(b *testing.B) {
	const states = 582_051
	fps := make([]uint64, states)
	for i := range fps {
		fps[i] = mix64(uint64(i) + chanSalt)
	}
	b.Run("fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := newFpMemo()
			for _, fp := range fps {
				m.insert(fp, nil)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*states), "ns/insert")
	})
	b.Run("hit", func(b *testing.B) {
		m := newFpMemo()
		for _, fp := range fps {
			m.insert(fp, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, fp := range fps {
				m.insert(fp, nil)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*states), "ns/insert")
	})
}
