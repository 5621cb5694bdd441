package core

import (
	"fmt"
	"math"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

// IDScheme selects how Algorithm 3 derives its two virtual IDs from the
// node's real ID.
type IDScheme uint8

// Virtual-ID schemes for Algorithm 3.
const (
	// SchemeDoubled is the original assignment of Algorithm 3 line 2:
	// ID^(i) = 2·ID - 1 + i. All 2n virtual IDs are distinct; the total
	// message complexity is n(4·ID_max - 1) (Proposition 15).
	SchemeDoubled IDScheme = iota + 1

	// SchemeSuccessor is the improved assignment of Theorem 2:
	// ID^(1) = ID + 1 and ID^(0) = ID. Virtual IDs may repeat across
	// nodes, which Lemma 16 shows is harmless as long as the overall
	// maxima of the two directions differ; the complexity drops to
	// n(2·ID_max + 1).
	SchemeSuccessor
)

// String names the scheme.
func (s IDScheme) String() string {
	switch s {
	case SchemeDoubled:
		return "doubled"
	case SchemeSuccessor:
		return "successor"
	default:
		return "scheme?"
	}
}

// virtualIDs returns [ID^(0), ID^(1)] for the scheme, or an error when
// the ID is zero or ID^(1) would not fit in a uint64.
func (s IDScheme) virtualIDs(id uint64) ([2]uint64, error) {
	if id == 0 {
		return [2]uint64{}, fmt.Errorf("core: ID must be positive")
	}
	switch s {
	case SchemeDoubled:
		if id > math.MaxUint64/2 {
			return [2]uint64{}, fmt.Errorf("core: ID %d overflows the doubled scheme's virtual ID 2·ID (largest ID is %d)",
				id, uint64(math.MaxUint64/2))
		}
		return [2]uint64{2*id - 1, 2 * id}, nil
	case SchemeSuccessor:
		if id == math.MaxUint64 {
			return [2]uint64{}, fmt.Errorf("core: ID %d overflows the successor scheme's virtual ID ID+1 (largest ID is %d)",
				id, uint64(math.MaxUint64-1))
		}
		return [2]uint64{id, id + 1}, nil
	default:
		return [2]uint64{}, fmt.Errorf("core: unknown ID scheme %d", s)
	}
}

// Alg3 is Algorithm 3: quiescently stabilizing leader election and ring
// orientation on non-oriented rings (Theorem 2 / Proposition 15).
//
// The node runs two parallel copies of Algorithm 1, one per direction of
// the ring, without knowing which is which: a pulse received on one port is
// forwarded out the opposite port unless the receiving counter equals the
// virtual ID governing that forwarding direction. Because the two virtual
// IDs of the maximum-ID node differ, the directions stabilize at different
// pulse totals, which breaks symmetry: the unique node whose Port0 count
// equals its larger virtual ID while its Port1 count stays below it is the
// leader, and comparing the two counts orients the ring consistently at
// every node.
//
// The algorithm reaches quiescence but never terminates.
//
// The one-byte fields sit last so a FlatAlg3 slot is 64 B.
type Alg3 struct {
	id  uint64
	vid [2]uint64 // vid[i] governs forwarding out of port i
	rho [2]uint64 // pulses received per port
	sig [2]uint64 // pulses sent per port

	scheme   IDScheme
	state    node.State
	oriented bool
	cwPort   pulse.Port
}

// NewAlg3 returns an Algorithm 3 machine for a node with the given positive
// ID under the given virtual-ID scheme.
func NewAlg3(id uint64, scheme IDScheme) (*Alg3, error) {
	vid, err := scheme.virtualIDs(id)
	if err != nil {
		return nil, err
	}
	return &Alg3{id: id, scheme: scheme, vid: vid}, nil
}

// ID returns the node's (real) identifier.
func (a *Alg3) ID() uint64 { return a.id }

// VirtualID returns ID^(i).
func (a *Alg3) VirtualID(i int) uint64 { return a.vid[i] }

// Rho returns the pulses received on port p.
func (a *Alg3) Rho(p pulse.Port) uint64 { return a.rho[p] }

// Sig returns the pulses sent on port p.
func (a *Alg3) Sig(p pulse.Port) uint64 { return a.sig[p] }

// Scheme returns the virtual-ID scheme in force.
func (a *Alg3) Scheme() IDScheme { return a.scheme }

func (a *Alg3) send(p pulse.Port, e node.PulseEmitter) {
	a.sig[p]++
	e.Send(p, pulse.Pulse{})
}

// Init implements node.Machine: lines 1-3, one pulse out of each port.
func (a *Alg3) Init(e node.PulseEmitter) {
	a.send(pulse.Port0, e)
	a.send(pulse.Port1, e)
}

// OnMsg implements node.Machine: lines 5-16. A pulse received on port p is
// forwarded out the opposite port unless rho_p has just reached the virtual
// ID governing that opposite port; then the output block recomputes the
// node's election state and port labeling.
func (a *Alg3) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	a.rho[p]++
	if a.rho[p] != a.vid[p.Opposite()] {
		a.send(p.Opposite(), e)
	}
	a.recomputeOutput()
}

// recomputeOutput is lines 8-16 of Algorithm 3, run after every pulse.
func (a *Alg3) recomputeOutput() {
	r0, r1 := a.rho[pulse.Port0], a.rho[pulse.Port1]
	if max64(r0, r1) < a.vid[1] {
		return
	}
	if r0 == a.vid[1] && r1 < a.vid[1] {
		a.state = node.StateLeader
	} else {
		a.state = node.StateNonLeader
	}
	a.oriented = true
	if r0 > r1 {
		// Port0 receives the busier direction, which is clockwise: a
		// clockwise pulse arrives at the port leading counterclockwise,
		// so Port0 is the counterclockwise port and Port1 the clockwise.
		a.cwPort = pulse.Port1
	} else {
		a.cwPort = pulse.Port0
	}
}

// Ready implements node.Machine: Algorithm 3 never stops polling.
func (a *Alg3) Ready(pulse.Port) bool { return true }

// Status implements node.Machine.
func (a *Alg3) Status() node.Status {
	return node.Status{
		State:       a.state,
		Orientation: node.Orientation{HasOrientation: a.oriented, CWPort: a.cwPort},
	}
}

// SnapshotTo implements node.Undoable: the per-port counters and the
// recomputed output block. The id/vid fields are constants for plain Alg3;
// Alg3Resample (which mutates them) snapshots them itself.
func (a *Alg3) SnapshotTo(buf []byte) []byte {
	flags := byte(a.state)
	if a.oriented {
		flags |= 1 << 4
	}
	flags |= byte(a.cwPort) << 5
	buf = node.AppendKey64(buf, a.rho[0])
	buf = node.AppendKey64(buf, a.rho[1])
	buf = node.AppendKey64(buf, a.sig[0])
	buf = node.AppendKey64(buf, a.sig[1])
	return append(buf, flags)
}

// Restore implements node.Undoable.
func (a *Alg3) Restore(snap []byte) {
	a.rho[0] = node.Key64(snap)
	a.rho[1] = node.Key64(snap[8:])
	a.sig[0] = node.Key64(snap[16:])
	a.sig[1] = node.Key64(snap[24:])
	flags := snap[32]
	a.state = node.State(flags & 0xf)
	a.oriented = flags&(1<<4) != 0
	a.cwPort = pulse.Port(flags >> 5)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
