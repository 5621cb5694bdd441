// Package node defines the event-driven node abstraction shared by every
// runtime in this repository: the deterministic discrete-event simulator
// (internal/sim), the goroutine-per-node live runtime (internal/live), and
// the exhaustive schedule explorer (internal/check).
//
// A Machine is a state machine in the sense of Section 2 of the paper: it
// acts once at start-up (Init) and afterwards only in reaction to message
// arrivals (OnMsg). The message type is generic so that the same runtimes
// drive both content-oblivious algorithms (M = pulse.Pulse) and the
// content-carrying baselines of internal/baseline.
package node

import (
	"coleader/internal/pulse"
)

// Emitter is handed to a Machine during Init and OnMsg; Send queues one
// message on the channel attached to the given port. Sends take effect
// atomically when the handler returns. An Emitter must not be retained
// beyond the handler invocation it was passed to.
type Emitter[M any] interface {
	Send(p pulse.Port, m M)
}

// Machine is an event-driven ring node.
//
// The runtime contract is:
//   - Init is invoked exactly once, before any OnMsg.
//   - OnMsg(p, m, e) is invoked when the runtime delivers a message from the
//     incoming queue of port p; it is never invoked while Ready(p) is false.
//   - Ready(p) reports whether the machine is currently willing to consume
//     from port p. This models the polling style of the paper's pseudocode
//     (e.g. Algorithm 2 does not call recvCCW until rho_cw >= ID): messages
//     queued on a non-ready port stay in the channel. A terminated machine
//     must report Ready false on both ports.
//   - Status may be called at any time between handler invocations.
type Machine[M any] interface {
	Init(e Emitter[M])
	OnMsg(p pulse.Port, m M, e Emitter[M])
	Ready(p pulse.Port) bool
	Status() Status
}

// PulseMachine is a Machine restricted to contentless pulses: the type of
// every content-oblivious algorithm in internal/core.
type PulseMachine = Machine[pulse.Pulse]

// PulseEmitter is the Emitter given to a PulseMachine.
type PulseEmitter = Emitter[pulse.Pulse]

// Cloneable is a machine that deep-copies itself.
//
// Deprecated: no package requires or implements it. The exhaustive
// explorer (internal/check) needs only Undoable: it backtracks by
// restoring snapshots and never copies a machine. The declaration stays
// while the election ledger's tests still name it.
type Cloneable[M any] interface {
	Machine[M]

	// CloneMachine returns a deep copy of the machine.
	CloneMachine() Machine[M]
}

// Undoable is a machine's one state encoding. The exhaustive explorer
// (internal/check) requires it of every machine: it snapshots the one
// machine a step mutates into a shared arena and restores it when
// backtracking, and the snapshot bytes are also the machine's memo key —
// two machines at the same node index with equal snapshots must behave
// identically forever after. The simulator's and the live runtime's fault
// planes use it, where present, for restart and corrupt injections.
//
// SnapshotTo appends a compact encoding of the machine's MUTABLE state to
// buf and returns the extended buffer; construction-time constants (IDs,
// port labels, schemes) need not be included, because they are fixed per
// node index within one exploration and the memo salts each machine's key
// by its index. Restore sets the machine's state from the prefix of snap
// written by the matching SnapshotTo call; snap may carry trailing bytes
// beyond that prefix, which Restore must ignore — so the encoding is
// self-delimiting, and concatenated snapshots key a whole ring
// unambiguously. Snapshots are only taken from — and restored onto —
// machines whose Status().Err is nil (the explorer aborts on the first
// fault), so implementations need not encode error values; Restore
// clears any.
//
// Field parity: every struct field Init or OnMsg writes (directly or
// through helpers) must be encoded by SnapshotTo AND written back by
// Restore, and Restore must not decode fields SnapshotTo never encodes.
// An omitted field both resurrects stale state on backtrack and merges
// distinct global states in the memo. The oblint state-snapshot,
// state-restore, and state-skew checks prove all three per field,
// module-wide; error-typed fields are exempt per the contract above.
type Undoable interface {
	SnapshotTo(buf []byte) []byte
	Restore(snap []byte)
}

// AppendKey64 appends v to dst in little-endian order: the fixed-width
// building block of Undoable snapshots.
func AppendKey64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendKey32 appends v to dst in little-endian order.
func AppendKey32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Key64 reads the little-endian uint64 at the start of b: the inverse of
// AppendKey64, used by Undoable.Restore implementations.
func Key64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// State is a node's leader-election output.
type State uint8

// Election outputs. StateUndecided is the zero value: a node that has not
// yet set a state.
const (
	StateUndecided State = iota
	StateLeader
	StateNonLeader
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case StateUndecided:
		return "Undecided"
	case StateLeader:
		return "Leader"
	case StateNonLeader:
		return "Non-Leader"
	default:
		return "State?"
	}
}

// Status is the externally observable condition of a Machine.
//
// Status keeps at most four top-level fields so that the Go compiler
// passes it in registers: a struct of five or more fields is returned
// through memory, and every engine reads a machine's Status after every
// handler (the simulator's afterHandler, the checker's stepper, the live
// runtime's run loop). The two orientation fields therefore travel as one
// embedded Orientation; their reads (st.CWPort) and JSON keys are those
// of plain fields.
type Status struct {
	// State is the current election output (possibly still subject to
	// revision for stabilizing algorithms).
	State State

	// Terminated reports that the node has explicitly halted. Once set it
	// must never clear, and Ready must be false on both ports.
	Terminated bool

	Orientation

	// Err records a protocol fault detected by the machine itself, such as
	// a pulse arriving on a channel the algorithm proves silent. Runtimes
	// abort the run when they observe a non-nil Err.
	Err error
}

// Orientation is a node's port labeling (Algorithm 3), embedded in Status.
type Orientation struct {
	// HasOrientation reports that the node has labeled its ports with ring
	// directions. When set, CWPort is the port the node believes leads to
	// its clockwise neighbor.
	HasOrientation bool
	CWPort         pulse.Port
}
