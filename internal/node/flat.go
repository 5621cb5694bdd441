package node

import (
	"coleader/internal/pulse"
)

// FlatMachine is a bank of n machines addressed by slot instead of one
// heap object per node. It is the opt-in layout for very large rings:
// the banks in internal/core keep every node's machine record in one
// contiguous slice, so a 10⁷-node bank is a single allocation rather
// than 10⁷ small objects for the allocator and the garbage collector.
//
// Slot k of a bank obeys exactly the Machine contract — Init once,
// OnMsg only while Ready(p), Status between handlers — and a bank must
// behave indistinguishably from len(bank) independent Machine values
// (the flat differential tests assert this trace-for-trace against the
// pointer implementations). Slots must not share mutable state: a
// runtime may run handlers of different slots from different goroutines
// as long as no slot is handled concurrently with itself.
type FlatMachine[M any] interface {
	// Len returns the number of node slots in the bank.
	Len() int
	// Init runs slot k's start-up action; see Machine.Init.
	Init(k int, e Emitter[M])
	// OnMsg delivers m on port p to slot k; see Machine.OnMsg.
	OnMsg(k int, p pulse.Port, m M, e Emitter[M])
	// Ready reports whether slot k consumes from port p; see Machine.Ready.
	Ready(k int, p pulse.Port) bool
	// Status reports slot k's observable condition; see Machine.Status.
	Status(k int) Status
}

// FlatPulseMachine is a FlatMachine restricted to contentless pulses:
// the type of the machine banks in internal/core.
type FlatPulseMachine = FlatMachine[pulse.Pulse]

// Slot adapts one slot of a FlatMachine to the Machine interface, so
// observers and tests can introspect flat-backed simulations through
// the same accessor they use for pointer machines.
type Slot[M any] struct {
	Bank FlatMachine[M]
	K    int
}

// Init implements Machine.
func (s Slot[M]) Init(e Emitter[M]) { s.Bank.Init(s.K, e) }

// OnMsg implements Machine.
func (s Slot[M]) OnMsg(p pulse.Port, m M, e Emitter[M]) { s.Bank.OnMsg(s.K, p, m, e) }

// Ready implements Machine.
func (s Slot[M]) Ready(p pulse.Port) bool { return s.Bank.Ready(s.K, p) }

// Status implements Machine.
func (s Slot[M]) Status() Status { return s.Bank.Status(s.K) }
