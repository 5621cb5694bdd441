// Package coleader is the public API of this repository: a from-scratch Go
// implementation of "Content-Oblivious Leader Election on Rings" by Frei,
// Gelles, Ghazy, and Nolin (DISC 2024, brief announcement at PODC 2024).
//
// In the fully defective network model every message is corrupted down to
// a contentless pulse, and algorithms may rely only on the order and ports
// of pulse arrivals. This package elects leaders in that model:
//
//   - ElectOriented — Algorithm 2: quiescently terminating election on
//     oriented rings, exactly n(2·ID_max+1) pulses (Theorem 1).
//   - ElectOrientedStabilizing — Algorithm 1: the warm-up stabilizing
//     election, n·ID_max pulses, quiescent but non-terminating.
//   - ElectNonOriented — Algorithm 3: stabilizing election that also
//     orients a non-oriented ring (Theorem 2).
//   - ElectAnonymous — Algorithm 4 + Algorithm 3: randomized election on
//     anonymous rings, correct with high probability (Theorem 3).
//   - Compute — Corollary 5: elect a leader, then run an arbitrary
//     content-carrying ring algorithm over the fully defective network via
//     the universal simulation layer.
//   - SolitudePattern, LowerBound — the Section 6 lower-bound machinery.
//
// Executions run on a deterministic discrete-event simulator with a
// pluggable adversarial scheduler, or (WithLiveRuntime) on a goroutine-per-
// node runtime where the Go scheduler provides the asynchrony.
package coleader

import (
	"errors"
	"fmt"
	"math/rand"

	"coleader/internal/core"
	"coleader/internal/lowerbound"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/trace"
)

// Port identifies one of a node's two ring ports.
type Port = pulse.Port

// The two ports. On an oriented ring Port1 leads clockwise.
const (
	Port0 = pulse.Port0
	Port1 = pulse.Port1
)

// State is a node's election output.
type State = node.State

// Election outputs.
const (
	Undecided = node.StateUndecided
	Leader    = node.StateLeader
	NonLeader = node.StateNonLeader
)

// NodeOutcome is one node's final condition.
type NodeOutcome struct {
	// ID is the node's identifier (for ElectAnonymous, the sampled one).
	ID uint64
	// State is the node's election output.
	State State
	// Terminated reports explicit termination (Algorithm 2 only).
	Terminated bool
	// HasOrientation and CWPort report the port labeling computed by
	// Algorithm 3.
	HasOrientation bool
	CWPort         Port
}

// Result summarizes one election run.
type Result struct {
	// N is the ring size.
	N int
	// Leader is the elected node's index, or -1 if the election failed to
	// produce a unique leader (possible only for ElectAnonymous).
	Leader int
	// LeaderID is the elected node's identifier.
	LeaderID uint64
	// Pulses counts every pulse sent; PulsesCW/PulsesCCW split it by ring
	// direction.
	Pulses, PulsesCW, PulsesCCW uint64
	// Quiescent reports that no pulse remained anywhere.
	Quiescent bool
	// Terminated reports that every node explicitly terminated.
	Terminated bool
	// Nodes holds per-node outcomes in ring order.
	Nodes []NodeOutcome
	// TerminationOrder lists nodes in termination order (Algorithm 2: the
	// leader is last).
	TerminationOrder []int
	// Predicted is the paper's exact complexity formula for this run; for
	// the deterministic algorithms Pulses == Predicted always.
	Predicted uint64
}

// ErrNoUniqueLeader is reported (inside Result.Leader == -1 cases the
// caller chooses to treat as errors) when an anonymous election's sampled
// maximum was not unique.
var ErrNoUniqueLeader = errors.New("coleader: no unique leader elected")

// ElectOriented runs Algorithm 2 on an oriented ring with the given
// distinct positive IDs (clockwise order): quiescently terminating, leader
// = maximum ID, exactly n(2·ID_max+1) pulses.
func ElectOriented(ids []uint64, opts ...Option) (Result, error) {
	cfg := buildConfig(len(ids), opts)
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		return Result{}, err
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		return Result{}, err
	}
	predicted := core.PredictedAlg2Pulses(len(ids), ring.MaxID(ids))
	var obs []sim.Observer[pulse.Pulse]
	if cfg.invariants {
		obs = append(obs, trace.Alg2Invariants{IDMax: ring.MaxID(ids)})
	}
	return cfg.run(topo, ms, ids, predicted, obs)
}

// ElectOrientedStabilizing runs Algorithm 1: quiescently stabilizing,
// exactly n·ID_max pulses. Duplicate IDs are allowed (Lemma 16); every
// maximum-ID node ends in the Leader state.
func ElectOrientedStabilizing(ids []uint64, opts ...Option) (Result, error) {
	cfg := buildConfig(len(ids), opts)
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		return Result{}, err
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		return Result{}, err
	}
	predicted := core.PredictedAlg1Pulses(len(ids), ring.MaxID(ids))
	var obs []sim.Observer[pulse.Pulse]
	if cfg.invariants {
		obs = append(obs, trace.Alg1Invariants{IDMax: ring.MaxID(ids)})
	}
	return cfg.run(topo, ms, ids, predicted, obs)
}

// ElectNonOriented runs Algorithm 3 on a non-oriented ring: quiescently
// stabilizing election plus a consistent orientation, exactly
// n(2·ID_max+1) pulses with the default successor ID scheme (Theorem 2) or
// n(4·ID_max-1) with WithDoubledIDs (Proposition 15). Port assignments
// come from WithPortFlips/WithRandomPorts (default: oriented wiring, which
// the algorithm cannot observe anyway).
func ElectNonOriented(ids []uint64, opts ...Option) (Result, error) {
	cfg := buildConfig(len(ids), opts)
	topo, err := cfg.topology(len(ids))
	if err != nil {
		return Result{}, err
	}
	ms, err := core.Alg3Machines(len(ids), ids, cfg.scheme)
	if err != nil {
		return Result{}, err
	}
	predicted := core.PredictedAlg3Pulses(len(ids), ring.MaxID(ids), cfg.scheme)
	return cfg.run(topo, ms, ids, predicted, nil)
}

// ElectAnonymous runs the Theorem 3 pipeline on an anonymous ring of n
// nodes: every node samples an ID with Algorithm 4 (parameter c; larger
// means more reliable and more expensive) using the run's seed, then
// Algorithm 3 elects and orients. With probability 1 - O(n^-c) the sampled
// maximum is unique and a unique leader emerges; otherwise Result.Leader
// is -1 and the error wraps ErrNoUniqueLeader.
func ElectAnonymous(n int, c float64, opts ...Option) (Result, error) {
	ids := SampleAnonymousIDs(n, c, opts...)
	res, err := ElectNonOriented(ids, opts...)
	if err != nil {
		return res, err
	}
	if res.Leader < 0 {
		return res, fmt.Errorf("%w: sampled maximum not unique (n=%d, c=%v)", ErrNoUniqueLeader, n, c)
	}
	return res, nil
}

// SampleAnonymousIDs runs Algorithm 4 standalone: the IDs an anonymous
// ring of n nodes would sample for parameter c under the run's seed.
// Deterministic per seed, so callers can inspect the draw (e.g. to bound
// the cost n(2·ID_max+1) before running ElectNonOriented on it — the
// geometric sampler has a heavy tail and rare draws are enormous).
func SampleAnonymousIDs(n int, c float64, opts ...Option) []uint64 {
	cfg := buildConfig(n, opts)
	rng := rand.New(rand.NewSource(cfg.seed))
	return core.SampleIDs(rng, n, c)
}

// SolitudePattern extracts Algorithm 2's solitude pattern (Definition 21)
// for a single node with the given ID: '0' per clockwise arrival, '1' per
// counterclockwise. Lemma 22 guarantees patterns are unique per ID.
func SolitudePattern(id uint64) (string, error) {
	p, err := lowerbound.Solitude(func(id uint64) (node.PulseMachine, error) {
		return core.NewAlg2(id, pulse.Port1)
	}, id, 16*id+64)
	return string(p), err
}

// LowerBound is Theorem 4's bound: any content-oblivious leader election
// on an n-ring with IDs up to idMax sends at least n·floor(log2(idMax/n))
// pulses for some ID assignment.
func LowerBound(n int, idMax uint64) uint64 {
	return core.LowerBoundPulses(n, idMax)
}

// PredictedPulses returns the paper's exact pulse count for Algorithm 2:
// n(2·ID_max + 1), saturating at math.MaxUint64 when it does not fit.
func PredictedPulses(n int, idMax uint64) uint64 {
	return core.PredictedAlg2Pulses(n, idMax)
}

// collect converts runtime results into the facade Result.
func collect(n int, ids []uint64, statuses []node.Status, order []int,
	sent, cw, ccw uint64, quiescent, terminated bool, predicted uint64) Result {
	res := Result{
		N:          n,
		Leader:     -1,
		Pulses:     sent,
		PulsesCW:   cw,
		PulsesCCW:  ccw,
		Quiescent:  quiescent,
		Terminated: terminated,
		Predicted:  predicted,
	}
	res.TerminationOrder = append(res.TerminationOrder, order...)
	leaders := 0
	for k, st := range statuses {
		out := NodeOutcome{
			State:          st.State,
			Terminated:     st.Terminated,
			HasOrientation: st.HasOrientation,
			CWPort:         st.CWPort,
		}
		if k < len(ids) {
			out.ID = ids[k]
		}
		if st.State == node.StateLeader {
			leaders++
			res.Leader = k
			res.LeaderID = out.ID
		}
		res.Nodes = append(res.Nodes, out)
	}
	if leaders != 1 {
		res.Leader = -1
		res.LeaderID = 0
	}
	return res
}
