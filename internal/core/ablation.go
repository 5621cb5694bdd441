package core

import (
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

// Alg2Unguarded is an ABLATION of Algorithm 2: identical except that the
// line-9 guard is removed, i.e. a node consumes counterclockwise pulses
// even before rho_cw >= ID. The paper's correctness argument hinges on the
// counterclockwise instance lagging behind the clockwise one ("by subtly
// prioritizing the execution of the CW algorithm over that of the CCW
// one", Section 3.2); this variant exists to let the test suite and the
// exhaustive model checker demonstrate that the guard is not an artifact:
// without it there are schedules under which a node observes
// rho_ccw > rho_cw before any termination pulse exists and terminates
// prematurely, wrecking quiescent termination.
//
// Never use this machine for anything but ablation studies.
type Alg2Unguarded struct {
	id             uint64
	rhoCW, sigCW   uint64
	rhoCCW, sigCCW uint64
	err            error

	cwPort     pulse.Port
	state      node.State
	termSent   bool
	terminated bool
}

// NewAlg2Unguarded returns the ablated machine.
func NewAlg2Unguarded(id uint64, cwPort pulse.Port) (*Alg2Unguarded, error) {
	if err := checkOriented(id, cwPort); err != nil {
		return nil, err
	}
	return &Alg2Unguarded{id: id, cwPort: cwPort}, nil
}

func (a *Alg2Unguarded) sendCW(e node.PulseEmitter) {
	a.sigCW++
	e.Send(a.cwPort, pulse.Pulse{})
}

func (a *Alg2Unguarded) sendCCW(e node.PulseEmitter) {
	a.sigCCW++
	e.Send(a.cwPort.Opposite(), pulse.Pulse{})
}

// Init implements node.Machine.
func (a *Alg2Unguarded) Init(e node.PulseEmitter) {
	a.sendCW(e)
	a.after(e)
}

// OnMsg implements node.Machine: Algorithm 2's handler minus the guard on
// counterclockwise consumption.
func (a *Alg2Unguarded) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if a.terminated {
		a.err = fmt.Errorf("core: pulse delivered after termination")
		return
	}
	if p == a.cwPort.Opposite() {
		a.rhoCW++
		if a.rhoCW == a.id {
			a.state = node.StateLeader
		} else {
			a.state = node.StateNonLeader
			a.sendCW(e)
		}
	} else {
		// THE ABLATION: no check of rho_cw >= ID here.
		a.rhoCCW++
		switch {
		case a.termSent:
		case a.rhoCCW != a.id:
			a.sendCCW(e)
		}
	}
	a.after(e)
}

func (a *Alg2Unguarded) after(e node.PulseEmitter) {
	if a.rhoCW >= a.id && a.sigCCW == 0 {
		a.sendCCW(e)
	}
	if !a.termSent && a.rhoCW == a.id && a.rhoCCW == a.id {
		a.termSent = true
		a.sendCCW(e)
	}
	if a.rhoCCW > a.rhoCW {
		a.terminated = true
	}
}

// Ready implements node.Machine: both ports always polled — the ablated
// behavior.
func (a *Alg2Unguarded) Ready(pulse.Port) bool { return !a.terminated }

// Status implements node.Machine.
func (a *Alg2Unguarded) Status() node.Status {
	return node.Status{State: a.state, Terminated: a.terminated, Err: a.err}
}

// SnapshotTo implements node.Undoable: same layout as Alg2.
func (a *Alg2Unguarded) SnapshotTo(buf []byte) []byte {
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
func (a *Alg2Unguarded) Restore(snap []byte) {
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
