package sim

import (
	"fmt"

	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
)

// WithFaultPlane attaches a fault plane: the simulator consults it on every
// send (loss, duplication), after every delivery (spurious injection onto
// the delivered channel, then node crash / restart / corruption of the
// handling node), and after every init. A plane with zero budget never
// fires and the run is identical to a plane-free one, which the
// zero-budget differential test asserts trace-for-trace.
//
// Faulted runs deliberately step outside the Section 2 model, so the
// built-in violation checks double as fault detectors: a lost pulse can
// strand Algorithm 2 in ErrStalled, a spurious one can hit a terminated
// node (ErrPostTerminationSend), and the result may report zero or many
// leaders. Planes are single-use, like simulations.
func WithFaultPlane[M any](p *fault.Plane) Option[M] {
	return func(s *Sim[M]) { s.plane = p }
}

// captureInitialSnapshots records every Undoable machine's pre-Init state
// so Restart injections can reset to it. Called from New once options have
// run (machines have not executed yet).
func (s *Sim[M]) captureInitialSnapshots() {
	s.initSnap = make([][]byte, len(s.machines))
	for k, m := range s.machines {
		if u, ok := any(m).(node.Undoable); ok {
			s.initSnap[k] = u.SnapshotTo(nil)
		}
	}
}

// applyFaults runs the fault hooks owed after delivering channel c's head
// to node k: first the node fault for the handler that just ran, then
// spurious injection accounted to the delivery.
func (s *Sim[M]) applyFaults(c, k int) error {
	if err := s.applyNodeFault(k); err != nil {
		return err
	}
	if s.plane.OnDeliver(s.step, c) == fault.Spurious {
		return s.injectSpurious(c)
	}
	return nil
}

// injectSpurious places one adversarial zero-valued message on channel c.
// Injected messages are wire traffic: they count into Sent and the
// conservation counters, so Quiescent stays truthful about the network.
func (s *Sim[M]) injectSpurious(c int) error {
	k := ChanNode(c)
	if s.flags[k]&nodeTerm != 0 {
		return fmt.Errorf("%w: spurious pulse injected toward terminated node %d",
			ErrPostTerminationSend, k)
	}
	var zero M
	s.enqueue(c, zero, s.chanDir[c])
	return nil
}

// applyNodeFault consults the plane for node k's handler invocation that
// just completed and applies the resulting crash, restart, or corruption.
func (s *Sim[M]) applyNodeFault(k int) error {
	switch s.plane.OnHandler(s.step, k) {
	case fault.Crash:
		// Fail-stop: the node consumes nothing from here on. Its queued
		// and future incoming pulses strand, surfacing as ErrStalled.
		s.flags[k] |= nodeCrash
		s.refreshChan(chanID(k, pulse.Port0))
		s.refreshChan(chanID(k, pulse.Port1))
	case fault.Restart:
		u, ok := any(s.machines[k]).(node.Undoable)
		if !ok {
			s.plane.SkipLast(k)
			return nil
		}
		u.Restore(s.initSnap[k])
		// A restart revives even a terminated node; its first termination
		// stays recorded in TerminationOrder.
		s.flags[k] &^= nodeTerm
		return s.rerunInit(k)
	case fault.Corrupt:
		u, ok := any(s.machines[k]).(node.Undoable)
		if !ok {
			s.plane.SkipLast(k)
			return nil
		}
		u.Restore(s.plane.Perturb(k, u.SnapshotTo(nil)))
		// Ready answers may have changed with the state.
		s.refreshChan(chanID(k, pulse.Port0))
		s.refreshChan(chanID(k, pulse.Port1))
	}
	return nil
}

// rerunInit re-executes node k's Init as a fresh handler invocation (the
// restart's wake-up). Unlike InitNode it does not require the node to be
// uninitialized, and it does not consult the plane again for itself.
func (s *Sim[M]) rerunInit(k int) error {
	s.step++
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvInit, Step: s.step, Node: k}
	}
	s.em.from = k
	s.machines[k].Init(&s.em)
	if err := s.flushSends(k, ev); err != nil {
		return err
	}
	return s.afterHandler(k, ev)
}
