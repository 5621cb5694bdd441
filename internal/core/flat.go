package core

import (
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// Machine banks: one node.FlatBatchMachine per algorithm, holding every
// node's machine as one record in a single contiguous slice instead of
// one heap object per node. A slot is the pointer machine itself (Alg1
// 48 B, Alg2 64 B, Alg3 64 B), built by its own constructor, and every
// bank method delegates to that record's method, so each algorithm's
// transitions exist exactly once. The banks are three concrete wrappers
// rather than one generic bank so that every call into a record is a
// direct call, not a dictionary-dispatched one.

// FlatAlg1 is a bank of Alg1 machines: Algorithm 1 for every node of a
// ring.
type FlatAlg1 struct{ ms []Alg1 }

// NewFlatAlg1 builds an Algorithm 1 bank for all of t's nodes with the
// given positive IDs; the topology supplies each node's clockwise port,
// exactly like Alg1Machines.
func NewFlatAlg1(t ring.Topology, ids []uint64) (*FlatAlg1, error) {
	if len(ids) != t.N() {
		return nil, fmt.Errorf("core: %d IDs for %d nodes", len(ids), t.N())
	}
	b := &FlatAlg1{ms: make([]Alg1, len(ids))}
	for k := range b.ms {
		m, err := NewAlg1(ids[k], t.CWPort(k))
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", k, err)
		}
		b.ms[k] = *m
	}
	return b, nil
}

// Len implements node.FlatMachine.
func (b *FlatAlg1) Len() int { return len(b.ms) }

// Init implements node.FlatMachine.
func (b *FlatAlg1) Init(k int, e node.PulseEmitter) { b.ms[k].Init(e) }

// OnMsg implements node.FlatMachine.
func (b *FlatAlg1) OnMsg(k int, p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	b.ms[k].OnMsg(p, m, e)
}

// Ready implements node.FlatMachine.
func (b *FlatAlg1) Ready(k int, p pulse.Port) bool { return b.ms[k].Ready(p) }

// Status implements node.FlatMachine.
func (b *FlatAlg1) Status(k int) node.Status { return b.ms[k].Status() }

// OnPulses implements node.FlatBatchMachine.
func (b *FlatAlg1) OnPulses(k int, p pulse.Port, n uint64, e node.BatchEmitter) uint64 {
	return b.ms[k].OnPulses(p, n, e)
}

// FlatAlg2 is a bank of Alg2 machines: Algorithm 2 for every node of an
// oriented ring.
type FlatAlg2 struct{ ms []Alg2 }

// NewFlatAlg2 builds an Algorithm 2 bank for all of t's nodes. IDs must
// be positive and distinct (Theorem 1), exactly like Alg2Machines.
func NewFlatAlg2(t ring.Topology, ids []uint64) (*FlatAlg2, error) {
	if len(ids) != t.N() {
		return nil, fmt.Errorf("core: %d IDs for %d nodes", len(ids), t.N())
	}
	if err := ring.CheckDistinct(ids); err != nil {
		return nil, err
	}
	b := &FlatAlg2{ms: make([]Alg2, len(ids))}
	for k := range b.ms {
		m, err := NewAlg2(ids[k], t.CWPort(k))
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", k, err)
		}
		b.ms[k] = *m
	}
	return b, nil
}

// Len implements node.FlatMachine.
func (b *FlatAlg2) Len() int { return len(b.ms) }

// Init implements node.FlatMachine.
func (b *FlatAlg2) Init(k int, e node.PulseEmitter) { b.ms[k].Init(e) }

// OnMsg implements node.FlatMachine.
func (b *FlatAlg2) OnMsg(k int, p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	b.ms[k].OnMsg(p, m, e)
}

// Ready implements node.FlatMachine.
func (b *FlatAlg2) Ready(k int, p pulse.Port) bool { return b.ms[k].Ready(p) }

// Status implements node.FlatMachine.
func (b *FlatAlg2) Status(k int) node.Status { return b.ms[k].Status() }

// OnPulses implements node.FlatBatchMachine.
func (b *FlatAlg2) OnPulses(k int, p pulse.Port, n uint64, e node.BatchEmitter) uint64 {
	return b.ms[k].OnPulses(p, n, e)
}

// FlatAlg3 is a bank of Alg3 machines: Algorithm 3 for every node of a
// (possibly non-oriented) ring under one virtual-ID scheme.
type FlatAlg3 struct{ ms []Alg3 }

// NewFlatAlg3 builds an Algorithm 3 bank for n nodes with the given
// positive IDs under scheme, exactly like Alg3Machines.
func NewFlatAlg3(n int, ids []uint64, scheme IDScheme) (*FlatAlg3, error) {
	if len(ids) != n {
		return nil, fmt.Errorf("core: %d IDs for %d nodes", len(ids), n)
	}
	b := &FlatAlg3{ms: make([]Alg3, n)}
	for k := range b.ms {
		m, err := NewAlg3(ids[k], scheme)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", k, err)
		}
		b.ms[k] = *m
	}
	return b, nil
}

// Len implements node.FlatMachine.
func (b *FlatAlg3) Len() int { return len(b.ms) }

// Init implements node.FlatMachine.
func (b *FlatAlg3) Init(k int, e node.PulseEmitter) { b.ms[k].Init(e) }

// OnMsg implements node.FlatMachine.
func (b *FlatAlg3) OnMsg(k int, p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	b.ms[k].OnMsg(p, m, e)
}

// Ready implements node.FlatMachine.
func (b *FlatAlg3) Ready(k int, p pulse.Port) bool { return b.ms[k].Ready(p) }

// Status implements node.FlatMachine.
func (b *FlatAlg3) Status(k int) node.Status { return b.ms[k].Status() }

// OnPulses implements node.FlatBatchMachine.
func (b *FlatAlg3) OnPulses(k int, p pulse.Port, n uint64, e node.BatchEmitter) uint64 {
	return b.ms[k].OnPulses(p, n, e)
}
