// Package experiments regenerates every quantitative claim of the paper as
// a table: the theorem-exact message complexities (E1, E2), the anonymous
// ring's probabilistic guarantees (E3), the lower bound and solitude
// patterns (E4), the lemma invariants (E5), the comparison against
// classical content-carrying election (E6), the Corollary 5 composition
// (E7), Proposition 19 (E8), and exhaustive small-ring schedule checking
// (E9). Later experiments probe beyond the paper's model: stabilization
// timelines (E10), knowledge ablation (E11), transport width (E12),
// redundancy composition (E13), seeded fault injection (E14),
// million-node scale (E15), batch-engine pulse-run coalescing (E16), and
// exhaustive fault-aware verification of every injection position under
// every schedule (E17).
// cmd/experiments renders them; EXPERIMENTS.md records the outputs
// against the paper's statements.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"coleader/internal/baseline"
	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/defective"
	"coleader/internal/lowerbound"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/stats"
	"coleader/internal/trace"
	"coleader/internal/xrand"
)

// Experiment is one registered regenerator.
type Experiment struct {
	// ID is the experiment identifier (E1..E9).
	ID string
	// Claim is the paper statement under test.
	Claim string
	// Run produces the experiment's tables.
	Run func(seed int64) ([]*stats.Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 1: Algorithm 2 elects with quiescent termination in exactly n(2·ID_max+1) pulses", E1},
		{"E2", "Theorem 2 / Proposition 15: Algorithm 3 elects and orients non-oriented rings in n(2·ID_max+1) / n(4·ID_max-1) pulses", E2},
		{"E3", "Theorem 3 / Lemma 18: anonymous election succeeds w.h.p. with polynomially bounded unique maximum", E3},
		{"E4", "Theorem 4/20 + Lemma 22: distinct solitude patterns and the n·floor(log2(ID_max/n)) lower bound", E4},
		{"E5", "Lemmas 6-17: per-event invariants hold under every scheduler, including duplicate IDs", E5},
		{"E6", "Section 1.2: the price of content-obliviousness vs classical O(n log n) election", E6},
		{"E7", "Corollary 5: arbitrary computations over a fully defective ring after electing a leader", E7},
		{"E8", "Proposition 19: ID resampling yields all-distinct IDs at quiescence w.h.p.", E8},
		{"E9", "Model checking: Theorems 1/2 hold under EVERY schedule on small rings", E9},
		{"E10", "Quiescent stabilization: outputs settle long before the network goes quiet, undetectably", E10},
		{"E11", "Knowledge frontier: known-n Itai-Rodeh terminates where the no-knowledge pipeline can only stabilize", E11},
		{"E12", "Transport ablation: chunk width vs pulse cost in the universal simulation layer", E12},
		{"E13", "Section 1.1 r-redundancy composition: correctness preserved at exactly (r+1)-fold cost", E13},
		{"E14", "Fault plane: stabilizing algorithms heal early output corruption exactly; the terminating algorithm breaks under conservation-violating faults", E14},
		{"E15", "Scale: geometric-ID elections cost exactly n·ID_max = Theta(n log n) pulses to million-node rings", E15},
		{"E16", "Batch engine: pulse-run coalescing conserves Theorem 1's pulse count exactly while transitions fall by the schedule-dependent coalescing factor", E16},
		{"E17", "Fault-aware model checking: pulse-conserving fault classes (loss, crash, corrupt) yield finite state spaces verified exhaustively; pulse-adding classes (dup, spurious, restart) provably diverge and are certified up to a state bound", E17},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// E1 sweeps Algorithm 2 over sizes, ID assignments, and schedulers,
// asserting the exact Theorem 1 complexity and termination discipline.
// Cells are independent runs: they execute on the sweep worker pool with
// per-cell split seeds and are reduced in cell order, so the table is
// identical at any worker count.
func E1(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E1 — Theorem 1: Algorithm 2 on oriented rings (predicted = n(2·ID_max+1))",
		"n", "ID scheme", "ID_max", "scheduler", "pulses", "predicted", "exact", "leader=max", "leader last")
	assignNames := []string{"consecutive", "permuted", "sparse(n^2)", "adversarial(8n)"}
	idsFor := func(n, asIdx int) ([]uint64, error) {
		rng := rand.New(rand.NewSource(xrand.Split(seed, 0xE1, uint64(n), uint64(asIdx))))
		switch asIdx {
		case 0:
			return ring.ConsecutiveIDs(n), nil
		case 1:
			return ring.PermutedIDs(n, rng), nil
		case 2:
			return ring.SparseIDs(n, uint64(n)*uint64(n)+16, rng)
		default:
			return ring.AdversarialIDs(n, uint64(8*n))
		}
	}
	type cell struct {
		n, asIdx  int
		schedName string
	}
	var cells []cell
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		for asIdx := range assignNames {
			for _, schedName := range []string{"canonical", "random", "ccw-first"} {
				cells = append(cells, cell{n, asIdx, schedName})
			}
		}
	}
	type row struct {
		idMax, sent, pred            uint64
		exact, leaderMax, leaderLast bool
		err                          error
	}
	rows := make([]row, len(cells))
	parDo(len(cells), func(i int) {
		c := cells[i]
		ids, err := idsFor(c.n, c.asIdx)
		if err != nil {
			rows[i].err = err
			return
		}
		topo, err := ring.Oriented(c.n)
		if err != nil {
			rows[i].err = err
			return
		}
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			rows[i].err = err
			return
		}
		s, err := sim.New(topo, ms, sim.Stock(seed)[c.schedName])
		if err != nil {
			rows[i].err = err
			return
		}
		idMax := ring.MaxID(ids)
		pred := core.PredictedAlg2Pulses(c.n, idMax)
		res, err := s.Run(4*pred + 1024)
		if err != nil {
			rows[i].err = fmt.Errorf("E1 n=%d %s %s: %w", c.n, assignNames[c.asIdx], c.schedName, err)
			return
		}
		maxIdx, _ := ring.MaxIndex(ids)
		rows[i] = row{
			idMax: idMax, sent: res.Sent, pred: pred,
			exact:      res.Sent == pred,
			leaderMax:  res.Leader == maxIdx,
			leaderLast: len(res.TerminationOrder) == c.n && res.TerminationOrder[c.n-1] == maxIdx,
		}
	})
	for i, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		c := cells[i]
		t.AddRow(c.n, assignNames[c.asIdx], r.idMax, c.schedName, r.sent, r.pred,
			boolMark(r.exact), boolMark(r.leaderMax), boolMark(r.leaderLast))
	}
	return []*stats.Table{t}, nil
}

// E2 sweeps Algorithm 3 over port assignments and both virtual-ID schemes.
func E2(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E2 — Theorem 2 / Prop. 15: Algorithm 3 on non-oriented rings",
		"n", "scheme", "ID_max", "ports", "pulses", "predicted", "exact", "leader=max", "oriented")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		ids := ring.PermutedIDs(n, rng)
		idMax := ring.MaxID(ids)
		maxIdx, _ := ring.MaxIndex(ids)
		ports := map[string]func() (ring.Topology, error){
			"oriented": func() (ring.Topology, error) { return ring.Oriented(n) },
			"random":   func() (ring.Topology, error) { return ring.RandomNonOriented(n, rng) },
			"all-flipped": func() (ring.Topology, error) {
				f := make([]bool, n)
				for i := range f {
					f[i] = true
				}
				return ring.NonOriented(f)
			},
		}
		portNames := make([]string, 0, len(ports))
		for name := range ports {
			portNames = append(portNames, name)
		}
		sort.Strings(portNames)
		for _, scheme := range []core.IDScheme{core.SchemeSuccessor, core.SchemeDoubled} {
			for _, pn := range portNames {
				topo, err := ports[pn]()
				if err != nil {
					return nil, err
				}
				ms, err := core.Alg3Machines(n, ids, scheme)
				if err != nil {
					return nil, err
				}
				s, err := sim.New(topo, ms, sim.NewRandom(seed+int64(n)))
				if err != nil {
					return nil, err
				}
				pred := core.PredictedAlg3Pulses(n, idMax, scheme)
				res, err := s.Run(4*pred + 1024)
				if err != nil {
					return nil, fmt.Errorf("E2 n=%d %v %s: %w", n, scheme, pn, err)
				}
				oriented := true
				var dir pulse.Direction
				for k, st := range res.Statuses {
					if !st.HasOrientation {
						oriented = false
						break
					}
					d := topo.DirectionOf(k, st.CWPort)
					if dir == 0 {
						dir = d
					} else if d != dir {
						oriented = false
						break
					}
				}
				t.AddRow(n, scheme.String(), idMax, pn, res.Sent, pred,
					boolMark(res.Sent == pred),
					boolMark(res.Leader == maxIdx),
					boolMark(oriented))
			}
		}
	}
	return []*stats.Table{t}, nil
}

// E3 measures the anonymous pipeline: unique-max rate, election success,
// and ID_max magnitude, per (n, c).
func E3(seed int64) ([]*stats.Table, error) {
	// ID_max is reported by median/p99, not mean: the geometric sampler's
	// value distribution has E[2^BitCount] = infinity whenever 2p > 1, so
	// sample means are dominated by a single extreme draw and carry no
	// information. Lemma 18's statements are w.h.p. bounds, i.e. quantile
	// statements, which the order statistics below test directly.
	rate := stats.NewTable(
		"E3a — Lemma 18: unique-maximum rate of Algorithm 4 (10000 trials each)",
		"n", "c", "unique-max rate", "median ID_max", "p99 ID_max")
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		for ci, c := range []float64{0.5, 1, 2, 3} {
			const trials = 10000
			type draw struct {
				unique bool
				max    float64
			}
			draws := make([]draw, trials)
			parDo(trials, func(i int) {
				rng := rand.New(rand.NewSource(xrand.Split(seed, 0xE3A, uint64(n), uint64(ci), uint64(i))))
				ids := core.SampleIDs(rng, n, c)
				draws[i] = draw{core.UniqueMax(ids), float64(ring.MaxID(ids))}
			})
			unique := 0
			maxes := make([]float64, 0, trials)
			for _, d := range draws {
				if d.unique {
					unique++
				}
				maxes = append(maxes, d.max)
			}
			sum := stats.Summarize(maxes)
			rate.AddRow(n, c, float64(unique)/trials, sum.P50, sum.P99)
		}
	}

	elect := stats.NewTable(
		"E3b — Theorem 3: full anonymous election (Algorithm 4 + Algorithm 3) on random non-oriented rings",
		"n", "c", "trials run", "unique-max draws", "elections correct", "mean pulses")
	for _, n := range []int{6, 12, 24} {
		const c = 1.0
		const trials = 60
		type trial struct {
			ran, unique, correct bool
			pulses               float64
			err                  error
		}
		res := make([]trial, trials)
		parDo(trials, func(i int) {
			rng := rand.New(rand.NewSource(xrand.Split(seed, 0xE3B, uint64(n), uint64(i))))
			ids := core.SampleIDs(rng, n, c)
			pred := core.PredictedAlg3Pulses(n, ring.MaxID(ids), core.SchemeSuccessor)
			if pred > 2_000_000 {
				return // heavy-tail draw; magnitude covered by E3a
			}
			topo, err := ring.RandomNonOriented(n, rng)
			if err != nil {
				res[i].err = err
				return
			}
			ms, err := core.Alg3Machines(n, ids, core.SchemeSuccessor)
			if err != nil {
				res[i].err = err
				return
			}
			s, err := sim.New(topo, ms, sim.NewRandom(xrand.Split(seed, 0xE3B+1, uint64(n), uint64(i))))
			if err != nil {
				res[i].err = err
				return
			}
			r, err := s.Run(4*pred + 1024)
			if err != nil {
				res[i].err = fmt.Errorf("E3 n=%d trial %d: %w", n, i, err)
				return
			}
			maxIdx, uniq := ring.MaxIndex(ids)
			res[i] = trial{
				ran:     true,
				unique:  uniq,
				correct: uniq && r.Leader == maxIdx,
				pulses:  float64(r.Sent),
			}
		})
		ran, uniqueDraws, correct := 0, 0, 0
		var pulses []float64
		for _, tr := range res {
			if tr.err != nil {
				return nil, tr.err
			}
			if !tr.ran {
				continue
			}
			ran++
			pulses = append(pulses, tr.pulses)
			if tr.unique {
				uniqueDraws++
				if tr.correct {
					correct++
				}
			}
		}
		elect.AddRow(n, c, ran, uniqueDraws, correct, stats.Summarize(pulses).Mean)
	}
	return []*stats.Table{rate, elect}, nil
}

// E4 regenerates the lower-bound analysis: solitude patterns are unique
// (Lemma 22), their shared prefixes respect the pigeonhole floor, and the
// measured Algorithm 2 cost brackets between Theorem 4's lower bound and
// Theorem 1's upper bound.
func E4(seed int64) ([]*stats.Table, error) {
	mk := func(id uint64) (node.PulseMachine, error) { return core.NewAlg2(id, pulse.Port1) }
	const maxID = 2048
	ps, err := lowerbound.Patterns(mk, maxID, 1<<16)
	if err != nil {
		return nil, err
	}
	minLen, err := lowerbound.VerifyUnique(ps)
	if err != nil {
		return nil, err
	}
	uniq := stats.NewTable(
		fmt.Sprintf("E4a — Lemma 22: solitude patterns of Algorithm 2 for IDs 1..%d", maxID),
		"IDs checked", "all distinct", "min pattern length", "max shared prefix", "pigeonhole floor log2(k/2)")
	uniq.AddRow(maxID, "yes", minLen, lowerbound.MaxSharedPrefix(ps),
		int(core.LowerBoundPulses(2, maxID))/2)

	bound := stats.NewTable(
		"E4b — Theorem 4 vs Theorem 1: measured cost between n·floor(log2(ID_max/n)) and n(2·ID_max+1)",
		"n", "ID_max", "lower bound", "measured", "upper bound", "measured/lower", "within")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, factor := range []uint64{1, 4, 16, 64, 256} {
			idMax := uint64(n) * factor
			if idMax < uint64(n) {
				continue
			}
			ids, err := ring.SparseIDs(n, idMax, rng)
			if err != nil {
				return nil, err
			}
			// Force the max to be exactly idMax for a clean x-axis.
			maxIdx, _ := ring.MaxIndex(ids)
			ids[maxIdx] = idMax
			topo, err := ring.Oriented(n)
			if err != nil {
				return nil, err
			}
			ms, err := core.Alg2Machines(topo, ids)
			if err != nil {
				return nil, err
			}
			s, err := sim.New(topo, ms, sim.NewRandom(seed))
			if err != nil {
				return nil, err
			}
			ub := core.PredictedAlg2Pulses(n, idMax)
			res, err := s.Run(4*ub + 1024)
			if err != nil {
				return nil, fmt.Errorf("E4 n=%d idMax=%d: %w", n, idMax, err)
			}
			lb := core.LowerBoundPulses(n, idMax)
			ratio := "inf"
			if lb > 0 {
				ratio = stats.Ratio(float64(res.Sent), float64(lb))
			}
			bound.AddRow(n, idMax, lb, res.Sent, ub, ratio,
				boolMark(res.Sent >= lb && res.Sent <= ub))
		}
	}
	return []*stats.Table{uniq, bound}, nil
}

// E5 runs the Lemma 6 family of checkers after every event of runs across
// schedulers and duplicate-ID assignments (Lemmas 16/17, Figure 2).
func E5(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E5 — Lemmas 6-17: per-event invariant checking (each row = one fully checked run)",
		"algorithm", "n", "IDs", "scheduler", "events checked", "violations")
	rng := rand.New(rand.NewSource(seed))
	type cfg struct {
		alg  string
		ids  []uint64
		desc string
	}
	dup64, err := ring.DuplicateIDs(6, 4, 3)
	if err != nil {
		return nil, err
	}
	dupAll := []uint64{5, 5, 5, 5}
	cfgs := []cfg{
		{"alg1", ring.PermutedIDs(8, rng), "unique"},
		{"alg1", dup64, "3 nodes at ID_max (Fig. 2)"},
		{"alg1", dupAll, "all nodes at ID_max"},
		{"alg2", ring.PermutedIDs(8, rng), "unique"},
		{"alg2", ring.ConsecutiveIDs(12), "consecutive"},
	}
	for _, c := range cfgs {
		for _, schedName := range []string{"canonical", "random", "ccw-first", "newest"} {
			sched := sim.Stock(seed)[schedName]
			topo, err := ring.Oriented(len(c.ids))
			if err != nil {
				return nil, err
			}
			var ms []node.PulseMachine
			var obs sim.Observer[pulse.Pulse]
			idMax := ring.MaxID(c.ids)
			if c.alg == "alg1" {
				ms, err = core.Alg1Machines(topo, c.ids)
				obs = trace.Alg1Invariants{IDMax: idMax}
			} else {
				ms, err = core.Alg2Machines(topo, c.ids)
				obs = trace.Alg2Invariants{IDMax: idMax}
			}
			if err != nil {
				return nil, err
			}
			events := 0
			counter := sim.ObserverFunc[pulse.Pulse](func(*sim.Event, *sim.Sim[pulse.Pulse]) error {
				events++
				return nil
			})
			s, err := sim.New(topo, ms, sched,
				sim.WithObserver[pulse.Pulse](obs), sim.WithObserver[pulse.Pulse](counter))
			if err != nil {
				return nil, err
			}
			if _, err := s.Run(1 << 20); err != nil {
				return nil, fmt.Errorf("E5 %s %s %s: %w", c.alg, c.desc, schedName, err)
			}
			t.AddRow(c.alg, len(c.ids), c.desc, schedName, events, 0)
		}
	}
	return []*stats.Table{t}, nil
}

// E6 compares the content-oblivious election against the classical
// content-carrying baselines across ring sizes and ID magnitudes.
func E6(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E6 — the price of content-obliviousness: messages (baselines carry content; Algorithm 2 carries none)",
		"n", "ID_max", "lelann", "chang-roberts", "hirschberg-sinclair", "peterson", "alg2 (pulses)", "alg2/peterson")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		for _, idMaxF := range []uint64{1, 8, 64} {
			idMax := uint64(n) * idMaxF
			ids, err := ring.SparseIDs(n, idMax, rng)
			if err != nil {
				return nil, err
			}
			maxIdx, _ := ring.MaxIndex(ids)
			ids[maxIdx] = idMax
			topo, err := ring.Oriented(n)
			if err != nil {
				return nil, err
			}
			counts := make(map[baseline.Algorithm]uint64)
			for _, a := range baseline.Algorithms() {
				res, err := baseline.Run(a, topo, ids, sim.NewRandom(seed), 1<<22)
				if err != nil {
					return nil, fmt.Errorf("E6 %s n=%d: %w", a, n, err)
				}
				counts[a] = res.Sent
			}
			ms, err := core.Alg2Machines(topo, ids)
			if err != nil {
				return nil, err
			}
			s, err := sim.New(topo, ms, sim.NewRandom(seed))
			if err != nil {
				return nil, err
			}
			pred := core.PredictedAlg2Pulses(n, idMax)
			res, err := s.Run(4*pred + 1024)
			if err != nil {
				return nil, fmt.Errorf("E6 alg2 n=%d: %w", n, err)
			}
			t.AddRow(n, idMax,
				counts[baseline.AlgLeLann], counts[baseline.AlgChangRoberts],
				counts[baseline.AlgHirschbergSinclair], counts[baseline.AlgPeterson],
				res.Sent, stats.Ratio(float64(res.Sent), float64(counts[baseline.AlgPeterson])))
		}
	}
	return []*stats.Table{t}, nil
}

// E7 measures the Corollary 5 pipeline: election, layer setup, and the
// simulated computation, with the exact setup-cost prediction.
func E7(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E7 — Corollary 5: elect (Alg. 2) then compute max-consensus over the fully defective ring",
		"n", "ID_max", "total pulses", "election (exact)", "setup (exact)", "computation", "answer correct everywhere")
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		ids := ring.PermutedIDs(n, rng)
		idMax := ring.MaxID(ids)
		inputs := make([]uint64, n)
		var want uint64
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(100))
			if inputs[i] > want {
				want = inputs[i]
			}
		}
		topo, err := ring.Oriented(n)
		if err != nil {
			return nil, err
		}
		apps := make([]*defective.RingMax, n)
		ms := make([]node.PulseMachine, n)
		for k := 0; k < n; k++ {
			apps[k] = defective.NewRingMax(inputs[k])
			m, err := defective.NewComposed(ids[k], topo.CWPort(k), apps[k])
			if err != nil {
				return nil, err
			}
			ms[k] = m
		}
		s, err := sim.New(topo, ms, sim.NewRandom(seed+int64(n)))
		if err != nil {
			return nil, err
		}
		res, err := s.Run(1 << 26)
		if err != nil {
			return nil, fmt.Errorf("E7 n=%d: %w", n, err)
		}
		election := core.PredictedAlg2Pulses(n, idMax)
		setup := defective.PredictedSetupPulses(n)
		comp := res.Sent - election - setup
		ok := true
		for _, a := range apps {
			if !a.Done() || a.Result() != want {
				ok = false
			}
		}
		t.AddRow(n, idMax, res.Sent, election, setup, comp, boolMark(ok))
	}
	return []*stats.Table{t}, nil
}

// E8 measures Proposition 19's distinctness guarantee against the
// magnitude of ID_max.
func E8(seed int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E8 — Proposition 19: all-distinct IDs at quiescence (resampling variant of Algorithm 3)",
		"n", "ID_max", "trials", "all distinct", "rate", "mean resamples/node")
	for _, n := range []int{4, 8, 12} {
		for _, idMax := range []uint64{64, 1024, 65536} {
			const trials = 40
			type trial struct {
				distinct  bool
				resamples float64
				err       error
			}
			res := make([]trial, trials)
			parDo(trials, func(i int) {
				rng := rand.New(rand.NewSource(xrand.Split(seed, 0xE8, uint64(n), idMax, uint64(i))))
				ids := make([]uint64, n)
				for j := range ids {
					ids[j] = 1 + uint64(rng.Intn(3)) // maximal collision pressure
				}
				ids[rng.Intn(n)] = idMax
				topo, err := ring.RandomNonOriented(n, rng)
				if err != nil {
					res[i].err = err
					return
				}
				ms, err := core.Alg3ResampleMachines(n, ids, core.SchemeSuccessor,
					xrand.Split(seed, 0xE8+1, uint64(n), idMax, uint64(i)))
				if err != nil {
					res[i].err = err
					return
				}
				s, err := sim.New(topo, ms, sim.NewRandom(xrand.Split(seed, 0xE8+2, uint64(n), idMax, uint64(i))))
				if err != nil {
					res[i].err = err
					return
				}
				pred := core.PredictedAlg3Pulses(n, idMax, core.SchemeSuccessor)
				if _, err := s.Run(4*pred + 1024); err != nil {
					res[i].err = fmt.Errorf("E8 n=%d trial %d: %w", n, i, err)
					return
				}
				final := make([]uint64, n)
				var rs float64
				for k := 0; k < n; k++ {
					m := s.Machine(k).(*core.Alg3Resample)
					final[k] = m.ID()
					rs += float64(m.Resamples())
				}
				res[i] = trial{
					distinct:  ring.CheckDistinct(final) == nil,
					resamples: rs / float64(n),
				}
			})
			distinct := 0
			var resamples []float64
			for _, tr := range res {
				if tr.err != nil {
					return nil, tr.err
				}
				if tr.distinct {
					distinct++
				}
				resamples = append(resamples, tr.resamples)
			}
			t.AddRow(n, idMax, trials, distinct, float64(distinct)/trials,
				stats.Summarize(resamples).Mean)
		}
	}
	return []*stats.Table{t}, nil
}

// E9 model-checks Theorems 1 and 2 under every delivery schedule of small
// rings.
func E9(int64) ([]*stats.Table, error) {
	t := stats.NewTable(
		"E9 — exhaustive schedule exploration (memoized): every interleaving verified",
		"algorithm", "IDs", "ports", "states", "terminal states", "max depth", "all schedules correct")
	type inst struct {
		alg   string
		ids   []uint64
		flips []bool
	}
	insts := []inst{
		{"alg2", []uint64{1}, nil},
		{"alg2", []uint64{2, 1}, nil},
		{"alg2", []uint64{1, 3}, nil},
		{"alg2", []uint64{3, 1, 2}, nil},
		{"alg2", []uint64{2, 4, 1}, nil},
		{"alg1", []uint64{2, 2, 1}, nil},
		{"alg3", []uint64{2, 1}, []bool{false, true}},
		{"alg3", []uint64{1, 2, 3}, []bool{true, false, true}},
	}
	for _, in := range insts {
		n := len(in.ids)
		var topo ring.Topology
		var err error
		ports := "oriented"
		if in.flips != nil {
			topo, err = ring.NonOriented(in.flips)
			ports = fmt.Sprint(in.flips)
		} else {
			topo, err = ring.Oriented(n)
		}
		if err != nil {
			return nil, err
		}
		idMax := ring.MaxID(in.ids)
		maxIdx, uniqueMax := ring.MaxIndex(in.ids)
		cfg := check.Config{Topo: topo}
		switch in.alg {
		case "alg1":
			cfg.NewMachines = func() ([]node.PulseMachine, error) { return core.Alg1Machines(topo, in.ids) }
			cfg.Check = func(f check.Final) error {
				if want := core.PredictedAlg1Pulses(n, idMax); f.Sent != want {
					return fmt.Errorf("sent %d, want %d", f.Sent, want)
				}
				return nil
			}
		case "alg2":
			cfg.NewMachines = func() ([]node.PulseMachine, error) { return core.Alg2Machines(topo, in.ids) }
			cfg.Check = func(f check.Final) error {
				if want := core.PredictedAlg2Pulses(n, idMax); f.Sent != want {
					return fmt.Errorf("sent %d, want %d", f.Sent, want)
				}
				if !uniqueMax || len(f.Leaders) != 1 || f.Leaders[0] != maxIdx {
					return fmt.Errorf("leaders %v", f.Leaders)
				}
				return nil
			}
		case "alg3":
			cfg.NewMachines = func() ([]node.PulseMachine, error) {
				return core.Alg3Machines(n, in.ids, core.SchemeSuccessor)
			}
			cfg.Check = func(f check.Final) error {
				if want := core.PredictedAlg3Pulses(n, idMax, core.SchemeSuccessor); f.Sent != want {
					return fmt.Errorf("sent %d, want %d", f.Sent, want)
				}
				if len(f.Leaders) != 1 || f.Leaders[0] != maxIdx {
					return fmt.Errorf("leaders %v", f.Leaders)
				}
				return nil
			}
		}
		rep, err := check.Exhaustive(cfg)
		if err != nil {
			return nil, fmt.Errorf("E9 %s ids=%v: %w", in.alg, in.ids, err)
		}
		t.AddRow(in.alg, fmt.Sprint(in.ids), ports, rep.StatesVisited, rep.TerminalStates,
			rep.MaxDepth, "yes")
	}
	return []*stats.Table{t}, nil
}
