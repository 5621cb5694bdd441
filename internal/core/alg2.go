package core

import (
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

// Alg2 is Algorithm 2: quiescently terminating leader election on oriented
// rings (Theorem 1), with message complexity exactly n(2·ID_max + 1).
//
// It interleaves two instances of Algorithm 1 — one clockwise, one
// counterclockwise — with the counterclockwise instance forced to lag: a
// node neither starts it nor consumes counterclockwise arrivals until
// rho_cw >= ID (the pseudocode's line-9 guard, realized here through the
// Ready method, which leaves early counterclockwise pulses parked in the
// channel exactly as unpolled queues park them in the paper). The lag makes
// rho_cw = ID = rho_ccw an event unique to the maximum-ID node, which then
// launches a single extra counterclockwise pulse; every node terminates
// upon its first observation of rho_ccw > rho_cw, forwarding the extra
// pulse once (non-leaders) or absorbing it (the leader, which terminates
// last).
//
// The one-byte fields sit after err so a FlatAlg2 slot is 64 B.
type Alg2 struct {
	id             uint64
	rhoCW, sigCW   uint64
	rhoCCW, sigCCW uint64
	err            error

	cwPort     pulse.Port
	state      node.State
	termSent   bool // the unique-event pulse of line 15 has been sent
	terminated bool
}

// NewAlg2 returns an Algorithm 2 machine for a node with the given positive
// ID whose clockwise neighbor is reached through cwPort.
func NewAlg2(id uint64, cwPort pulse.Port) (*Alg2, error) {
	if err := checkOriented(id, cwPort); err != nil {
		return nil, err
	}
	return &Alg2{id: id, cwPort: cwPort}, nil
}

// ID returns the node's identifier.
func (a *Alg2) ID() uint64 { return a.id }

// RhoCW returns the clockwise pulses received.
func (a *Alg2) RhoCW() uint64 { return a.rhoCW }

// SigCW returns the clockwise pulses sent.
func (a *Alg2) SigCW() uint64 { return a.sigCW }

// RhoCCW returns the counterclockwise pulses received.
func (a *Alg2) RhoCCW() uint64 { return a.rhoCCW }

// SigCCW returns the counterclockwise pulses sent.
func (a *Alg2) SigCCW() uint64 { return a.sigCCW }

// TerminationPulseSent reports whether this node initiated the termination
// pulse of line 15 (true only ever at the elected leader).
func (a *Alg2) TerminationPulseSent() bool { return a.termSent }

func (a *Alg2) sendCW(e node.PulseEmitter) {
	a.sigCW++
	e.Send(a.cwPort, pulse.Pulse{})
}

func (a *Alg2) sendCCW(e node.PulseEmitter) {
	a.sigCCW++
	e.Send(a.cwPort.Opposite(), pulse.Pulse{})
}

// Init implements node.Machine: line 1, sendCW().
func (a *Alg2) Init(e node.PulseEmitter) {
	a.sendCW(e)
	a.after(e)
}

// OnMsg implements node.Machine. Clockwise pulses arrive on the
// counterclockwise port and run lines 3-8; counterclockwise pulses arrive
// on the clockwise port and run lines 11-13 (or, for the leader awaiting
// its termination pulse, lines 16-17: consume without forwarding).
func (a *Alg2) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if a.terminated {
		a.err = fmt.Errorf("core: Alg2 pulse delivered after termination")
		return
	}
	if p == a.cwPort.Opposite() { // clockwise pulse: Algorithm 1 over CW
		a.rhoCW++
		if a.rhoCW == a.id {
			a.state = node.StateLeader
		} else {
			a.state = node.StateNonLeader
			a.sendCW(e)
		}
	} else { // counterclockwise pulse
		if a.rhoCW < a.id {
			// Ready(ccw) was false; the runtime must not have delivered.
			a.err = fmt.Errorf("core: Alg2 counterclockwise pulse before rho_cw >= ID")
			return
		}
		a.rhoCCW++
		switch {
		case a.termSent:
			// Line 16-17: the leader's termination pulse returning; consume
			// without forwarding.
		case a.rhoCCW != a.id:
			a.sendCCW(e)
		}
	}
	a.after(e)
}

// after runs the guard-triggered parts of the loop body that the pseudocode
// re-evaluates every iteration (lines 9-10, 14-15, and the exit test of
// line 18).
func (a *Alg2) after(e node.PulseEmitter) {
	// Line 9-10: start the counterclockwise instance once rho_cw >= ID.
	if a.rhoCW >= a.id && a.sigCCW == 0 {
		a.sendCCW(e)
	}
	// Line 14-15: the event unique to the leader launches the termination
	// pulse.
	if !a.termSent && a.rhoCW == a.id && a.rhoCCW == a.id {
		a.termSent = true
		a.sendCCW(e)
	}
	// Line 18: first observation of rho_ccw > rho_cw ends the algorithm.
	if a.rhoCCW > a.rhoCW {
		a.terminated = true
	}
}

// Ready implements node.Machine. The counterclockwise queue is not polled
// until rho_cw >= ID (line 9's guard); a terminated node polls nothing.
func (a *Alg2) Ready(p pulse.Port) bool {
	if a.terminated {
		return false
	}
	if p == a.cwPort { // counterclockwise arrivals
		return a.rhoCW >= a.id
	}
	return true
}

// Status implements node.Machine.
func (a *Alg2) Status() node.Status {
	return node.Status{State: a.state, Terminated: a.terminated, Err: a.err}
}

// SnapshotTo implements node.Undoable: the four counters plus a flags byte.
func (a *Alg2) SnapshotTo(buf []byte) []byte {
	flags := byte(a.state)
	if a.termSent {
		flags |= 1 << 4
	}
	if a.terminated {
		flags |= 1 << 5
	}
	buf = node.AppendKey64(buf, a.rhoCW)
	buf = node.AppendKey64(buf, a.sigCW)
	buf = node.AppendKey64(buf, a.rhoCCW)
	buf = node.AppendKey64(buf, a.sigCCW)
	return append(buf, flags)
}

// Restore implements node.Undoable.
func (a *Alg2) Restore(snap []byte) {
	a.rhoCW = node.Key64(snap)
	a.sigCW = node.Key64(snap[8:])
	a.rhoCCW = node.Key64(snap[16:])
	a.sigCCW = node.Key64(snap[24:])
	flags := snap[32]
	a.state = node.State(flags & 0xf)
	a.termSent = flags&(1<<4) != 0
	a.terminated = flags&(1<<5) != 0
	a.err = nil
}
