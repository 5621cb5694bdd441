package core

import (
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

// Alg1 is Algorithm 1: quiescently stabilizing leader election on oriented
// rings using only clockwise pulses.
//
// Each node sends one pulse clockwise at start-up and thereafter relays
// every received pulse, except the single time its received count reaches
// its own ID, when it withholds the pulse and (at least temporarily)
// declares itself leader; any later arrival reverts it to non-leader and is
// relayed again. At quiescence every node has sent and received exactly
// ID_max pulses (Corollary 13) and exactly the maximum-ID nodes hold the
// Leader state (Lemma 16 extends this to non-unique IDs).
//
// The algorithm stabilizes but never terminates: Ready stays true forever.
//
// The one-byte fields sit after err so a FlatAlg1 slot is 48 B.
type Alg1 struct {
	id     uint64
	rhoCW  uint64 // clockwise pulses received
	sigCW  uint64 // clockwise pulses sent
	err    error
	cwPort pulse.Port // the port leading to the clockwise neighbor
	state  node.State
}

// NewAlg1 returns an Algorithm 1 machine for a node with the given positive
// ID whose clockwise neighbor is reached through cwPort.
func NewAlg1(id uint64, cwPort pulse.Port) (*Alg1, error) {
	if err := checkOriented(id, cwPort); err != nil {
		return nil, err
	}
	return &Alg1{id: id, cwPort: cwPort}, nil
}

// checkOriented validates the constructor arguments shared by the
// oriented-ring machines (Alg1, Alg2 and the Alg2Unguarded ablation).
// Keeping it out of line lets NewAlg1 and NewAlg2 inline into the bank
// builders of flat.go, which then fill each slot without a heap
// allocation.
func checkOriented(id uint64, cwPort pulse.Port) error {
	if id == 0 {
		return fmt.Errorf("core: ID must be positive")
	}
	if !cwPort.Valid() {
		return fmt.Errorf("core: invalid clockwise port %d", cwPort)
	}
	return nil
}

// ID returns the node's identifier.
func (a *Alg1) ID() uint64 { return a.id }

// RhoCW returns the number of clockwise pulses received so far.
func (a *Alg1) RhoCW() uint64 { return a.rhoCW }

// SigCW returns the number of clockwise pulses sent so far.
func (a *Alg1) SigCW() uint64 { return a.sigCW }

// Init implements node.Machine: line 1, sendCW().
func (a *Alg1) Init(e node.PulseEmitter) { a.sendCW(e) }

func (a *Alg1) sendCW(e node.PulseEmitter) {
	a.sigCW++
	e.Send(a.cwPort, pulse.Pulse{})
}

// OnMsg implements node.Machine: the body of Algorithm 1's main loop.
// Clockwise pulses arrive on the counterclockwise port; Algorithm 1 sends
// no counterclockwise pulses, so an arrival on the clockwise port would
// mean the network violated the model and is recorded as a fault.
func (a *Alg1) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if p == a.cwPort {
		a.err = fmt.Errorf("core: Alg1 received a counterclockwise pulse on %s", p)
		return
	}
	a.rhoCW++
	if a.rhoCW == a.id {
		a.state = node.StateLeader
		return // withhold this one pulse
	}
	a.state = node.StateNonLeader
	a.sendCW(e)
}

// Ready implements node.Machine: Algorithm 1 never stops polling.
func (a *Alg1) Ready(pulse.Port) bool { return true }

// Status implements node.Machine.
func (a *Alg1) Status() node.Status {
	return node.Status{State: a.state, Err: a.err}
}

// SnapshotTo implements node.Undoable: the mutable fields only (id and
// cwPort are construction-time constants).
func (a *Alg1) SnapshotTo(buf []byte) []byte {
	buf = node.AppendKey64(buf, a.rhoCW)
	buf = node.AppendKey64(buf, a.sigCW)
	return append(buf, byte(a.state))
}

// Restore implements node.Undoable.
func (a *Alg1) Restore(snap []byte) {
	a.rhoCW = node.Key64(snap)
	a.sigCW = node.Key64(snap[8:])
	a.state = node.State(snap[16])
	a.err = nil
}
