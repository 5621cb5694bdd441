package main

import (
	"fmt"
	"math/rand"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// runScale executes one election on the scale engine: the sequential
// simulator, which with -batch and -sched heaviest coalesces pulse runs
// into O(1) transitions and covers million-node rings on a single core.
// IDs come from -ids for small runs or from a generator for large ones;
// -flat switches to a machine bank (one contiguous slice of machine
// records), the memory-lean configuration million-node runs want.
func runScale(algo, idsFlag, idgen string, n int, c float64,
	schedName string, seed int64, flat, batch bool) error {
	var ids []uint64
	if idsFlag != "" {
		parsed, err := parseIDs(idsFlag)
		if err != nil {
			return err
		}
		ids, n = parsed, len(parsed)
	} else {
		if n <= 0 {
			return fmt.Errorf("ring size must be positive (got -n %d)", n)
		}
		rng := rand.New(rand.NewSource(seed))
		switch idgen {
		case "consecutive":
			ids = ring.ConsecutiveIDs(n)
		case "geometric":
			// Geometric ID values: ID_max concentrates around
			// (c+2)·log2 n, so Algorithm 1 stabilizes after
			// Theta(n log n) pulses — the regime where million-node
			// rings are feasible. Duplicates are expected; Algorithm 1
			// tolerates them (every maximum-ID node ends up a leader).
			ids = make([]uint64, n)
			for i := range ids {
				ids[i] = 1 + uint64(core.SampleBitCount(rng, c))
			}
		case "alg4":
			// Algorithm 4's actual sampling: exponentially large IDs,
			// unique maximum w.h.p. — but ID_max is poly(n), so keep n
			// modest with the exact-complexity algorithms.
			ids = core.SampleIDs(rng, n, c)
		default:
			return fmt.Errorf("unknown -idgen %q (want consecutive | geometric | alg4)", idgen)
		}
	}
	topo, err := ring.Oriented(n)
	if err != nil {
		return err
	}

	// Build the machine bank: a flat bank with -flat, else pointer machines.
	idMax := ring.MaxID(ids)
	var predicted uint64
	var bank node.FlatPulseMachine
	var ms []node.PulseMachine
	switch algo {
	case "alg1":
		predicted = core.PredictedAlg1Pulses(n, idMax)
		if flat {
			bank, err = core.NewFlatAlg1(topo, ids)
		} else {
			ms, err = core.Alg1Machines(topo, ids)
		}
	case "alg2":
		predicted = core.PredictedAlg2Pulses(n, idMax)
		if flat {
			bank, err = core.NewFlatAlg2(topo, ids)
		} else {
			ms, err = core.Alg2Machines(topo, ids)
		}
	case "alg3":
		predicted = core.PredictedAlg3Pulses(n, idMax, core.SchemeSuccessor)
		if flat {
			bank, err = core.NewFlatAlg3(n, ids, core.SchemeSuccessor)
		} else {
			ms, err = core.Alg3Machines(n, ids, core.SchemeSuccessor)
		}
	default:
		return fmt.Errorf("scale mode supports alg1|alg2|alg3, not %q", algo)
	}
	if err != nil {
		return err
	}
	if err := checkPrediction(algo, n, idMax, predicted); err != nil {
		return err
	}

	sched, ok := sim.Stock(seed)[schedName]
	if !ok {
		return fmt.Errorf("unknown scheduler %q", schedName)
	}
	var opts []sim.Option[pulse.Pulse]
	if batch {
		opts = append(opts, sim.WithBatching())
	}
	var s *sim.Sim[pulse.Pulse]
	if flat {
		s, err = sim.NewFlat(topo, bank, sched, opts...)
	} else {
		s, err = sim.New(topo, ms, sched, opts...)
	}
	if err != nil {
		return err
	}
	fmt.Printf("sequential run: algo=%s n=%d idgen=%s id-max=%d sched=%s flat=%t batch=%t\n",
		algo, n, describeIDs(idsFlag, idgen), idMax, schedName, flat, batch)
	stop := watchWall()
	res, runErr := s.Run(stepLimit(predicted))
	stop()
	transitions, multi := s.RunsCoalesced()
	if runErr != nil {
		return runErr
	}
	if res.Leader >= 0 {
		fmt.Printf("leader: node %d (ID %d)\n", res.Leader, ids[res.Leader])
	} else {
		fmt.Printf("leader: none unique (%d nodes share the maximum ID)\n", len(res.Leaders))
	}
	fmt.Printf("pulses: %d total (%d cw, %d ccw)  [paper predicts %d]\n",
		res.Sent, res.SentCW, res.SentCCW, predicted)
	fmt.Printf("quiescent: %t   terminated: %t   steps: %d\n",
		res.Quiescent, res.AllTerminated, res.Steps)
	if batch {
		factor := float64(res.Delivered)
		if transitions > 0 {
			factor /= float64(transitions)
		}
		fmt.Printf("batch: %d transitions (%d multi-pulse) delivered %d pulses — %.1fx coalescing\n",
			transitions, multi, res.Delivered, factor)
	}
	return nil
}

func describeIDs(idsFlag, idgen string) string {
	if idsFlag != "" {
		return "explicit"
	}
	return idgen
}
