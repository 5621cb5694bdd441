package check

import (
	"bytes"
	"errors"
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

// depthCheck is a memo that asserts, at every insert, that the depth the
// explorer files the state under is a function of the state itself:
// init bits set beyond the root's, plus deliveries (sent − queued), plus
// injections (the log length).
type depthCheck struct {
	memoTable
	t         *testing.T
	st        *state
	rootInits int
	visits    int
}

func (d *depthCheck) insert(depth int, fp uint64, key []byte) (bool, error) {
	d.visits++
	inits := -d.rootInits
	for _, in := range d.st.inited {
		if in {
			inits++
		}
	}
	var queued uint64
	for _, q := range d.st.queues {
		queued += uint64(q)
	}
	want := inits + int(d.st.sent-queued)
	if d.st.fx != nil {
		want += len(d.st.fx.log)
	}
	if depth != want {
		d.t.Fatalf("visit %d: explorer depth %d, state says %d (inits %d, sent %d, queued %d)",
			d.visits, depth, want, inits, d.st.sent, queued)
	}
	return d.memoTable.insert(depth, fp, key)
}

// TestDepthIsStateFunction: the depth-classed memo looks a state up only
// in its own depth class, which is sound only if every path to a state
// has the same length. At every visit of every fpCases exploration
// (windowed, restart, dup and explore-inits cases included), the depth
// the explorer passes to the memo must equal the depth the state itself
// implies. Divergent fault classes stop on a state budget.
func TestDepthIsStateFunction(t *testing.T) {
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
				MaxStates:    20000,
				NewMachines:  func() ([]node.PulseMachine, error) { return c.machines(topo) },
			}
			if c.plan.Active() {
				if cfg.plan, err = c.plan.Normalize(); err != nil {
					t.Fatal(err)
				}
			}
			root, prefix, err := buildRoot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			memo := &depthCheck{memoTable: newFpMemo(), t: t, st: root}
			for _, in := range root.inited {
				if in {
					memo.rootInits++
				}
			}
			ex := &undoExplorer{cfg: cfg, memo: memo, steps: prefix}
			ex.stepper = stepper{topo: topo, n: topo.N()}
			ex.reset(root)
			if err := ex.dfs(0); err != nil && !errors.Is(err, ErrStateBudget) {
				t.Fatal(err)
			}
			if memo.visits <= ex.rep.StatesVisited || ex.rep.MaxDepth == 0 {
				t.Errorf("%d visits of %d states, max depth %d: the walk did not revisit", memo.visits, ex.rep.StatesVisited, ex.rep.MaxDepth)
			}
			t.Logf("%d visits, %d states, max depth %d", memo.visits, ex.rep.StatesVisited, ex.rep.MaxDepth)
		})
	}
}

// censusConfig is the census workload: Algorithm 2 on IDs 7 1 6 2 5 3 4
// with every node initialized upfront and a loss/crash/corrupt budget-1
// fault plane.
func censusConfig(b *testing.B) Config {
	b.Helper()
	topo, err := ring.Oriented(7)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.Plan{Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt), Budget: 1}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Topo:        topo,
		NewMachines: func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, []uint64{7, 1, 6, 2, 5, 3, 4}) },
		MaxStates:   1 << 20,
		plan:        plan,
	}
}

// censusStepper is a stepper at the census workload's root.
func censusStepper(b *testing.B) *stepper {
	b.Helper()
	cfg := censusConfig(b)
	root, _, err := buildRoot(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sp := &stepper{topo: cfg.Topo, n: cfg.Topo.N()}
	sp.reset(root)
	return sp
}

var fpSink uint64

// BenchmarkStateFingerprint prices the memo fingerprint of one visit on
// the 7-node census state. "incremental" is what a step adds under the
// kept component sum: re-encode and rehash the one machine the step ran,
// add the delivered channel's weight, and finalize the sum (the fault
// section's terms are kept in the sum where its fields move, so
// finishing hashes nothing more). "rehash" is the full-key path it
// replaces: encode the whole state key and hash all of it.
func BenchmarkStateFingerprint(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		sp := censusStepper(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % sp.n
			sp.retally(k)
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

// memoRecorder is a memo that logs every insert's depth and fingerprint,
// in call order, before passing it on.
type memoRecorder struct {
	memoTable
	depths []uint16
	fps    []uint64
}

func (r *memoRecorder) insert(depth int, fp uint64, key []byte) (bool, error) {
	r.depths = append(r.depths, uint16(depth))
	r.fps = append(r.fps, fp)
	return r.memoTable.insert(depth, fp, key)
}

// censusVisits explores the census once and returns the (depth,
// fingerprint) of every memo insert in DFS order: the memo's real input,
// 582,051 new states among 2,333,301 visits.
func censusVisits(b *testing.B) *memoRecorder {
	b.Helper()
	cfg := censusConfig(b)
	root, prefix, err := buildRoot(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rec := &memoRecorder{memoTable: newFpMemo()}
	ex := &undoExplorer{cfg: cfg, memo: rec, steps: prefix}
	ex.stepper = stepper{topo: cfg.Topo, n: cfg.Topo.N()}
	ex.reset(root)
	if err := ex.dfs(0); err != nil {
		b.Fatal(err)
	}
	if ex.rep.StatesVisited != 582_051 {
		b.Fatalf("census visited %d states, want 582051", ex.rep.StatesVisited)
	}
	return rec
}

// BenchmarkMemoInsert times fpMemo.insert on the census's own input: the
// (depth, fingerprint) of every visit of one exploration, fed in DFS
// order. "fill" feeds the whole sequence into a fresh table (growth and
// the exploration's own hits included), "hit" feeds it again into the
// full table, as a revisit does. Both report ns per insert.
func BenchmarkMemoInsert(b *testing.B) {
	rec := censusVisits(b)
	feed := func(m memoTable) {
		for i, fp := range rec.fps {
			m.insert(int(rec.depths[i]), fp, nil)
		}
	}
	perInsert := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.fps)), "ns/insert")
	}
	b.Run("fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feed(newFpMemo())
		}
		perInsert(b)
	})
	b.Run("hit", func(b *testing.B) {
		m := newFpMemo()
		feed(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed(m)
		}
		perInsert(b)
	})
}
