package core

import (
	"math"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

// Batch transitions: the node.BatchMachine implementations for
// Algorithms 1-3 (the banks in flat.go delegate to them).
//
// Every algorithm in this package is counter arithmetic with thresholds:
// a pulse either relays (counter++ and one pulse out) or crosses a
// threshold (withhold, guard, terminate). A run of k same-port pulses
// therefore splits into uniform relay segments — applied in O(1) by
// adding the segment length to rho/sigma and emitting one counted run —
// separated by single threshold pulses, which are delegated to the
// ordinary OnMsg path so the batched and pulse-by-pulse executions stay
// transition-for-transition equivalent (the batched differential tests
// in internal/sim prove this against the sequential engine).
//
// Each OnPulses computes the distance to the machine's next threshold
// crossing and consumes min(k, distance-to-crossing) pulses; when the
// very next pulse is the crossing (or a guard could fire), it consumes
// exactly that one pulse via OnMsg. Consumed prefixes are
// emission-uniform — one relayed pulse each, or pure absorption — as
// the BatchMachine contract requires.
//
// The equivalence holds from every state Restore can produce, not only
// from the states OnMsg reaches: a Corrupt fault may restore counters
// that break the invariants of a fault-free run (rho_ccw <= rho_cw,
// sigma_ccw > 0 once rho_cw >= ID) or sit next to 2^64. Such a state
// takes the OnMsg path until the pulse at hand behaves like its
// neighbours again, and no relay prefix runs a counter past 2^64.

// relayPrefix returns how many of k pulses can be consumed before a
// receive counter at rho crosses the withhold threshold at id: up to
// (but not including) the pulse that lands exactly on it, or, once the
// counter is past the threshold, up to the pulse that would wrap it.
func relayPrefix(rho, id, k uint64) uint64 {
	d := math.MaxUint64 - rho
	if rho < id {
		d = id - rho - 1
	}
	return min(k, d)
}

// OnPulses implements node.BatchMachine: Algorithm 1's main loop over a
// run of k clockwise pulses. The single threshold is rho_cw reaching the
// node's ID (the withheld pulse of line 6).
func (a *Alg1) OnPulses(p pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	m := relayPrefix(a.rhoCW, a.id, k)
	if p == a.cwPort || m == 0 {
		// Wrong-port fault, the withheld crossing pulse, or the pulse
		// that wraps a corrupted counter: one ordinary step keeps the
		// non-uniform transition on the OnMsg path.
		a.OnMsg(p, pulse.Pulse{}, e)
		return 1
	}
	a.rhoCW += m
	a.sigCW += m
	a.state = node.StateNonLeader
	e.SendRun(a.cwPort, m)
	return m
}

// OnPulses implements node.BatchMachine: Algorithm 2 over a run of k
// pulses from one port. Thresholds: rho_cw reaching ID (withhold +
// Leader + the line 9-10 guard), rho_ccw reaching ID (withhold + the
// line 14-15 guard), and rho_ccw exceeding rho_cw (line 18 termination).
func (a *Alg2) OnPulses(p pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	if a.terminated {
		a.OnMsg(p, pulse.Pulse{}, e) // records the post-termination fault
		return 1
	}
	if p == a.cwPort.Opposite() { // clockwise pulses: Algorithm 1 over CW
		m := relayPrefix(a.rhoCW, a.id, k)
		if m == 0 || (a.rhoCW >= a.id && a.sigCCW == 0) || a.rhoCCW > a.rhoCW {
			// The ID crossing, or a state where an after() guard would
			// fire on the first pulse (lines 9-10, or line 18 after a
			// corrupted restore): single-step it.
			a.OnMsg(p, pulse.Pulse{}, e)
			return 1
		}
		// Uniform relay prefix: rho_cw stays off ID, so no after() guard
		// can newly hold (lines 9-10 and 14-15 test rho_cw against ID;
		// line 18's rho_ccw > rho_cw only gets falser as rho_cw grows).
		a.rhoCW += m
		a.sigCW += m
		a.state = node.StateNonLeader
		e.SendRun(a.cwPort, m)
		return m
	}
	// Counterclockwise pulses. Every state OnMsg reaches with
	// rho_cw >= ID has sigma_ccw > 0 and rho_ccw <= rho_cw; a corrupted
	// restore that breaks either has a guard that may fire on the first
	// pulse.
	if a.rhoCW < a.id || a.sigCCW == 0 || a.rhoCCW > a.rhoCW {
		a.OnMsg(p, pulse.Pulse{}, e) // records the Ready-violation fault, or single-steps
		return 1
	}
	d := a.rhoCW - a.rhoCCW // pulses before rho_ccw exceeds rho_cw
	if a.termSent {
		// Lines 16-17: the leader absorbs without forwarding; the pulse
		// that lifts rho_ccw above rho_cw terminates (line 18) and is the
		// last one this machine may ever consume.
		m := k
		if d < m {
			m = d + 1
		}
		a.rhoCCW += m
		if a.rhoCCW > a.rhoCW {
			a.terminated = true
		}
		return m
	}
	// Relay prefix of the counterclockwise instance: stop before rho_ccw
	// lands on ID (withheld pulse; line 14-15 guard), before it exceeds
	// rho_cw (line 18 termination), and before a corrupted sigma_ccw
	// wraps to 0 (line 9-10 guard).
	m := min(k, d, math.MaxUint64-a.sigCCW)
	if a.rhoCCW < a.id {
		m = min(m, a.id-a.rhoCCW-1)
	}
	if m == 0 {
		a.OnMsg(p, pulse.Pulse{}, e)
		return 1
	}
	a.rhoCCW += m
	a.sigCCW += m
	e.SendRun(a.cwPort.Opposite(), m)
	return m
}

// OnPulses implements node.BatchMachine: Algorithm 3 over a run of k
// pulses on port p. The single threshold is rho_p landing on the virtual
// ID governing the opposite port (the withheld pulse of line 6); the
// output block is a pure function of the final counters, so one
// recompute after the bulk update equals one per pulse.
func (a *Alg3) OnPulses(p pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	opp := p.Opposite()
	m := relayPrefix(a.rho[p], a.vid[opp], k)
	if m == 0 {
		a.OnMsg(p, pulse.Pulse{}, e)
		return 1
	}
	a.rho[p] += m
	a.sig[opp] += m
	e.SendRun(opp, m)
	a.recomputeOutput()
	return m
}
