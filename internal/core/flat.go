package core

import (
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// Struct-of-arrays machine banks: one node.FlatMachine per algorithm,
// holding every node's state in per-field slices instead of one heap
// object per node. A 10⁷-node Alg2 bank is six uint64 slices and two
// byte slices — a few hundred MB with zero per-node pointers — which is
// what lets the simulator elect over million-node rings.
//
// Each bank mirrors its pointer machine (alg1.go / alg2.go / alg3.go)
// line for line; the flat differential tests in internal/sim assert
// trace-for-trace equality between the two implementations under every
// stock scheduler. Error slots are allocated lazily on the first
// protocol fault, so violation-free runs never pay for them.

// faultSlots records per-slot protocol faults for a bank, allocating
// backing storage only when the first fault occurs.
type faultSlots struct {
	errs []error
}

func (f *faultSlots) set(n, k int, err error) {
	if f.errs == nil {
		f.errs = make([]error, n)
	}
	f.errs[k] = err
}

func (f *faultSlots) get(k int) error {
	if f.errs == nil {
		return nil
	}
	return f.errs[k]
}

// FlatAlg1 is the struct-of-arrays form of Alg1: Algorithm 1 for every
// node of a ring, state in per-field slices.
type FlatAlg1 struct {
	ids    []uint64
	cwPort []pulse.Port
	rhoCW  []uint64
	sigCW  []uint64
	state  []node.State
	faults faultSlots
}

// NewFlatAlg1 builds an Algorithm 1 bank for all of t's nodes with the
// given positive IDs; the topology supplies each node's clockwise port,
// exactly like Alg1Machines.
func NewFlatAlg1(t ring.Topology, ids []uint64) (*FlatAlg1, error) {
	n := t.N()
	if len(ids) != n {
		return nil, fmt.Errorf("core: %d IDs for %d nodes", len(ids), n)
	}
	b := &FlatAlg1{
		ids:    append([]uint64(nil), ids...),
		cwPort: make([]pulse.Port, n),
		rhoCW:  make([]uint64, n),
		sigCW:  make([]uint64, n),
		state:  make([]node.State, n),
	}
	for k := 0; k < n; k++ {
		if ids[k] == 0 {
			return nil, fmt.Errorf("core: node %d: ID must be positive", k)
		}
		b.cwPort[k] = t.CWPort(k)
	}
	return b, nil
}

// Len implements node.FlatMachine.
func (b *FlatAlg1) Len() int { return len(b.ids) }

// ID returns slot k's identifier.
func (b *FlatAlg1) ID(k int) uint64 { return b.ids[k] }

// RhoCW returns slot k's clockwise pulses received.
func (b *FlatAlg1) RhoCW(k int) uint64 { return b.rhoCW[k] }

// SigCW returns slot k's clockwise pulses sent.
func (b *FlatAlg1) SigCW(k int) uint64 { return b.sigCW[k] }

func (b *FlatAlg1) sendCW(k int, e node.PulseEmitter) {
	b.sigCW[k]++
	e.Send(b.cwPort[k], pulse.Pulse{})
}

// Init implements node.FlatMachine; mirrors Alg1.Init.
func (b *FlatAlg1) Init(k int, e node.PulseEmitter) { b.sendCW(k, e) }

// OnMsg implements node.FlatMachine; mirrors Alg1.OnMsg.
func (b *FlatAlg1) OnMsg(k int, p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if p == b.cwPort[k] {
		b.faults.set(len(b.ids), k, fmt.Errorf("core: Alg1 received a counterclockwise pulse on %s", p))
		return
	}
	b.rhoCW[k]++
	if b.rhoCW[k] == b.ids[k] {
		b.state[k] = node.StateLeader
		return // withhold this one pulse
	}
	b.state[k] = node.StateNonLeader
	b.sendCW(k, e)
}

// Ready implements node.FlatMachine: Algorithm 1 never stops polling.
func (b *FlatAlg1) Ready(int, pulse.Port) bool { return true }

// Status implements node.FlatMachine.
func (b *FlatAlg1) Status(k int) node.Status {
	return node.Status{State: b.state[k], Err: b.faults.get(k)}
}

// Alg2 flag bits (flat form).
const (
	flatTermSent   = 1 << 0
	flatTerminated = 1 << 1
)

// FlatAlg2 is the struct-of-arrays form of Alg2: Algorithm 2 for every
// node of an oriented ring.
type FlatAlg2 struct {
	ids    []uint64
	cwPort []pulse.Port
	rhoCW  []uint64
	sigCW  []uint64
	rhoCCW []uint64
	sigCCW []uint64
	state  []node.State
	flags  []uint8 // flatTermSent | flatTerminated
	faults faultSlots
}

// NewFlatAlg2 builds an Algorithm 2 bank for all of t's nodes. IDs must
// be positive and distinct (Theorem 1), exactly like Alg2Machines.
func NewFlatAlg2(t ring.Topology, ids []uint64) (*FlatAlg2, error) {
	n := t.N()
	if len(ids) != n {
		return nil, fmt.Errorf("core: %d IDs for %d nodes", len(ids), n)
	}
	if err := ring.CheckDistinct(ids); err != nil {
		return nil, err
	}
	b := &FlatAlg2{
		ids:    append([]uint64(nil), ids...),
		cwPort: make([]pulse.Port, n),
		rhoCW:  make([]uint64, n),
		sigCW:  make([]uint64, n),
		rhoCCW: make([]uint64, n),
		sigCCW: make([]uint64, n),
		state:  make([]node.State, n),
		flags:  make([]uint8, n),
	}
	for k := 0; k < n; k++ {
		if ids[k] == 0 {
			return nil, fmt.Errorf("core: node %d: ID must be positive", k)
		}
		b.cwPort[k] = t.CWPort(k)
	}
	return b, nil
}

// Len implements node.FlatMachine.
func (b *FlatAlg2) Len() int { return len(b.ids) }

// ID returns slot k's identifier.
func (b *FlatAlg2) ID(k int) uint64 { return b.ids[k] }

// RhoCW returns slot k's clockwise pulses received.
func (b *FlatAlg2) RhoCW(k int) uint64 { return b.rhoCW[k] }

// RhoCCW returns slot k's counterclockwise pulses received.
func (b *FlatAlg2) RhoCCW(k int) uint64 { return b.rhoCCW[k] }

func (b *FlatAlg2) sendCW(k int, e node.PulseEmitter) {
	b.sigCW[k]++
	e.Send(b.cwPort[k], pulse.Pulse{})
}

func (b *FlatAlg2) sendCCW(k int, e node.PulseEmitter) {
	b.sigCCW[k]++
	e.Send(b.cwPort[k].Opposite(), pulse.Pulse{})
}

// Init implements node.FlatMachine; mirrors Alg2.Init.
func (b *FlatAlg2) Init(k int, e node.PulseEmitter) {
	b.sendCW(k, e)
	b.after(k, e)
}

// OnMsg implements node.FlatMachine; mirrors Alg2.OnMsg.
func (b *FlatAlg2) OnMsg(k int, p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if b.flags[k]&flatTerminated != 0 {
		b.faults.set(len(b.ids), k, fmt.Errorf("core: Alg2 pulse delivered after termination"))
		return
	}
	if p == b.cwPort[k].Opposite() { // clockwise pulse: Algorithm 1 over CW
		b.rhoCW[k]++
		if b.rhoCW[k] == b.ids[k] {
			b.state[k] = node.StateLeader
		} else {
			b.state[k] = node.StateNonLeader
			b.sendCW(k, e)
		}
	} else { // counterclockwise pulse
		if b.rhoCW[k] < b.ids[k] {
			// Ready(ccw) was false; the runtime must not have delivered.
			b.faults.set(len(b.ids), k, fmt.Errorf("core: Alg2 counterclockwise pulse before rho_cw >= ID"))
			return
		}
		b.rhoCCW[k]++
		switch {
		case b.flags[k]&flatTermSent != 0:
			// Line 16-17: the leader's termination pulse returning; consume
			// without forwarding.
		case b.rhoCCW[k] != b.ids[k]:
			b.sendCCW(k, e)
		}
	}
	b.after(k, e)
}

// after mirrors Alg2.after: the guard-triggered parts of the loop body.
func (b *FlatAlg2) after(k int, e node.PulseEmitter) {
	if b.rhoCW[k] >= b.ids[k] && b.sigCCW[k] == 0 {
		b.sendCCW(k, e)
	}
	if b.flags[k]&flatTermSent == 0 && b.rhoCW[k] == b.ids[k] && b.rhoCCW[k] == b.ids[k] {
		b.flags[k] |= flatTermSent
		b.sendCCW(k, e)
	}
	if b.rhoCCW[k] > b.rhoCW[k] {
		b.flags[k] |= flatTerminated
	}
}

// Ready implements node.FlatMachine; mirrors Alg2.Ready.
func (b *FlatAlg2) Ready(k int, p pulse.Port) bool {
	if b.flags[k]&flatTerminated != 0 {
		return false
	}
	if p == b.cwPort[k] { // counterclockwise arrivals
		return b.rhoCW[k] >= b.ids[k]
	}
	return true
}

// Status implements node.FlatMachine.
func (b *FlatAlg2) Status(k int) node.Status {
	return node.Status{
		State:      b.state[k],
		Terminated: b.flags[k]&flatTerminated != 0,
		Err:        b.faults.get(k),
	}
}

// FlatAlg3 is the struct-of-arrays form of Alg3: Algorithm 3 for every
// node of a (possibly non-oriented) ring under one virtual-ID scheme.
type FlatAlg3 struct {
	scheme   IDScheme
	ids      []uint64
	vid0     []uint64 // vid0[k] governs forwarding out of Port0
	vid1     []uint64 // vid1[k] governs forwarding out of Port1
	rho0     []uint64
	rho1     []uint64
	sig0     []uint64
	sig1     []uint64
	state    []node.State
	oriented []bool
	cwPort   []pulse.Port
}

// NewFlatAlg3 builds an Algorithm 3 bank for n nodes with the given
// positive IDs under scheme, exactly like Alg3Machines.
func NewFlatAlg3(n int, ids []uint64, scheme IDScheme) (*FlatAlg3, error) {
	if len(ids) != n {
		return nil, fmt.Errorf("core: %d IDs for %d nodes", len(ids), n)
	}
	b := &FlatAlg3{
		scheme:   scheme,
		ids:      append([]uint64(nil), ids...),
		vid0:     make([]uint64, n),
		vid1:     make([]uint64, n),
		rho0:     make([]uint64, n),
		rho1:     make([]uint64, n),
		sig0:     make([]uint64, n),
		sig1:     make([]uint64, n),
		state:    make([]node.State, n),
		oriented: make([]bool, n),
		cwPort:   make([]pulse.Port, n),
	}
	for k := 0; k < n; k++ {
		if ids[k] == 0 {
			return nil, fmt.Errorf("core: node %d: ID must be positive", k)
		}
		vid, err := scheme.virtualIDs(ids[k])
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", k, err)
		}
		b.vid0[k], b.vid1[k] = vid[0], vid[1]
	}
	return b, nil
}

// Len implements node.FlatMachine.
func (b *FlatAlg3) Len() int { return len(b.ids) }

// ID returns slot k's (real) identifier.
func (b *FlatAlg3) ID(k int) uint64 { return b.ids[k] }

// Scheme returns the virtual-ID scheme in force.
func (b *FlatAlg3) Scheme() IDScheme { return b.scheme }

func (b *FlatAlg3) send(k int, p pulse.Port, e node.PulseEmitter) {
	if p == pulse.Port0 {
		b.sig0[k]++
	} else {
		b.sig1[k]++
	}
	e.Send(p, pulse.Pulse{})
}

// Init implements node.FlatMachine; mirrors Alg3.Init.
func (b *FlatAlg3) Init(k int, e node.PulseEmitter) {
	b.send(k, pulse.Port0, e)
	b.send(k, pulse.Port1, e)
}

// OnMsg implements node.FlatMachine; mirrors Alg3.OnMsg.
func (b *FlatAlg3) OnMsg(k int, p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	var rp, vidOpp uint64
	if p == pulse.Port0 {
		b.rho0[k]++
		rp, vidOpp = b.rho0[k], b.vid1[k]
	} else {
		b.rho1[k]++
		rp, vidOpp = b.rho1[k], b.vid0[k]
	}
	if rp != vidOpp {
		b.send(k, p.Opposite(), e)
	}
	b.recomputeOutput(k)
}

// recomputeOutput mirrors Alg3.recomputeOutput.
func (b *FlatAlg3) recomputeOutput(k int) {
	r0, r1 := b.rho0[k], b.rho1[k]
	if max64(r0, r1) < b.vid1[k] {
		return
	}
	if r0 == b.vid1[k] && r1 < b.vid1[k] {
		b.state[k] = node.StateLeader
	} else {
		b.state[k] = node.StateNonLeader
	}
	b.oriented[k] = true
	if r0 > r1 {
		b.cwPort[k] = pulse.Port1
	} else {
		b.cwPort[k] = pulse.Port0
	}
}

// Ready implements node.FlatMachine: Algorithm 3 never stops polling.
func (b *FlatAlg3) Ready(int, pulse.Port) bool { return true }

// Status implements node.FlatMachine.
func (b *FlatAlg3) Status(k int) node.Status {
	return node.Status{
		State:          b.state[k],
		HasOrientation: b.oriented[k],
		CWPort:         b.cwPort[k],
	}
}
