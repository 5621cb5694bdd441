package node

import (
	"coleader/internal/pulse"
)

// Pulse-run batching contracts.
//
// A content-oblivious channel carries no information beyond its pulse
// count (Section 2 of the paper): a queue of k pulses is fully described
// by the integer k. A machine whose transition function is counter
// arithmetic can therefore consume an entire run of k same-port pulses
// in one O(1) step — add k to the receive counter, emit a counted run —
// as long as the aggregate effect is exactly what k consecutive OnMsg
// invocations would have produced. These interfaces express that
// contract; the batch-aware simulator (sim.WithBatching) drives them and
// the batched differential tests prove the equivalence run by run
// against the sequential engine.

// BatchEmitter extends the pulse emitter with counted runs: SendRun
// queues n pulses on the channel attached to port p, exactly as n
// consecutive Send calls would. Like Send, runs take effect atomically
// when the handler returns, and the emitter must not be retained beyond
// the handler invocation it was passed to.
type BatchEmitter interface {
	PulseEmitter

	// SendRun emits n pulses out of port p. n == 0 is a no-op.
	SendRun(p pulse.Port, n uint64)
}

// BatchMachine is an optional extension of a pulse machine that can
// consume runs of pulses in one transition.
//
// OnPulses(p, k, e) is invoked in place of OnMsg when k >= 1 pulses are
// queued on port p and the runtime wants to deliver a run of them. It
// returns consumed, the number of pulses actually absorbed, with
// 1 <= consumed <= k. The call must leave the machine in exactly the
// state that consumed consecutive OnMsg(p, ...) invocations would have,
// and must emit exactly the sends those invocations would have emitted.
// This holds from every state the machine can be in, including one an
// Undoable machine is restored to from a corrupted snapshot; the live
// runtime hands runs to machines a fault plane has corrupted.
//
// So that the runtime can assign send sequence numbers identical to the
// expanded pulse-by-pulse execution, a call that consumes more than one
// pulse must be emission-uniform: every consumed pulse emits the same
// thing — either nothing, or the same number of pulses on one single
// port (for the threshold algorithms of internal/core: exactly one
// relayed pulse, or an absorbed pulse emitting nothing). Transitions
// that cross a threshold — where one pulse behaves differently from its
// neighbors (a withheld pulse, a guard firing, termination) — must
// consume up to or exactly the non-uniform pulse and return early; the
// runtime immediately re-invokes OnPulses for the remainder, so
// splitting costs one extra transition per crossing, not per pulse.
//
// Implementations typically reduce to: compute the distance d to the
// next threshold crossing; if the run ends before it, apply the whole
// run with counter arithmetic; otherwise consume min(k, d) pulses and
// let the crossing pulse take the ordinary OnMsg path.
type BatchMachine interface {
	PulseMachine

	// OnPulses consumes between 1 and k of the pulses queued on port p.
	OnPulses(p pulse.Port, k uint64, e BatchEmitter) uint64
}

// FlatBatchMachine is the bank twin of BatchMachine: a
// FlatPulseMachine bank whose slots can consume pulse runs. The
// OnPulses contract is BatchMachine's, applied to slot k.
type FlatBatchMachine interface {
	FlatPulseMachine

	// OnPulses consumes between 1 and n of the pulses queued on port p
	// of slot k.
	OnPulses(k int, p pulse.Port, n uint64, e BatchEmitter) uint64
}
