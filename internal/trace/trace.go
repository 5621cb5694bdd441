// Package trace provides simulator observers: execution recorders, running
// statistics, and — most importantly — invariant checkers that re-verify
// the paper's lemmas after every single event of a run:
//
//   - Lemma 6:  while rho_cw < ID a node has sent exactly one pulse more
//     than it received; afterwards exactly as many.
//   - Corollary 14: rho_cw never exceeds ID_max.
//   - Lemma 11: at quiescence, every node has rho = sigma = ID_max.
//   - The corresponding per-direction invariants of Algorithm 2, including
//     the accounting of the termination pulse.
//
// Attach these with sim.WithObserver; any violation aborts the run with a
// descriptive error, so the whole test suite doubles as a machine-checked
// proofreading of the paper's analysis.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// Alg1Counters is the introspection surface the Algorithm 1 checker
// needs. core.Alg1 implements it; so does any test double or wrapper that
// embeds one, which is how the violation-injection tests exercise the
// checker's teeth.
type Alg1Counters interface {
	ID() uint64
	RhoCW() uint64
	SigCW() uint64
}

// Alg2Counters extends Alg1Counters with the counterclockwise instance and
// the termination pulse; core.Alg2 implements it.
type Alg2Counters interface {
	Alg1Counters
	RhoCCW() uint64
	SigCCW() uint64
	TerminationPulseSent() bool
	Status() node.Status
}

// Alg1Invariants checks Lemma 6 and Corollary 14 for every Algorithm 1
// machine after every event, and the Lemma 11 characterization whenever the
// network is quiescent.
type Alg1Invariants struct {
	// IDMax is the largest assigned ID; used for Corollary 14 and Lemma 11.
	IDMax uint64
}

// OnEvent implements sim.Observer.
func (ch Alg1Invariants) OnEvent(_ *sim.Event, s *sim.Sim[pulse.Pulse]) error {
	for k := 0; k < s.Topology().N(); k++ {
		a, ok := s.Machine(k).(Alg1Counters)
		if !ok {
			return fmt.Errorf("trace: node %d does not expose Algorithm 1 counters", k)
		}
		rho, sig, id := a.RhoCW(), a.SigCW(), a.ID()
		if sig == 0 && rho == 0 {
			continue // node not yet awake; Lemma 6 speaks of loop iterations
		}
		// Lemma 6.
		switch {
		case rho < id && sig != rho+1:
			return fmt.Errorf("trace: Lemma 6.1 violated at node %d: rho=%d < ID=%d but sigma=%d != rho+1", k, rho, id, sig)
		case rho >= id && sig != rho:
			return fmt.Errorf("trace: Lemma 6.2 violated at node %d: rho=%d >= ID=%d but sigma=%d != rho", k, rho, id, sig)
		}
		// Corollary 14.
		if rho > ch.IDMax {
			return fmt.Errorf("trace: Corollary 14 violated at node %d: rho=%d > ID_max=%d", k, rho, ch.IDMax)
		}
	}
	// Lemma 11: quiescence <=> all nodes at rho = sigma = ID_max.
	if s.Quiescent() {
		for k := 0; k < s.Topology().N(); k++ {
			a := s.Machine(k).(Alg1Counters)
			if a.RhoCW() != ch.IDMax || a.SigCW() != ch.IDMax {
				return fmt.Errorf("trace: Lemma 11 violated at node %d: quiescent but rho=%d sigma=%d, ID_max=%d",
					k, a.RhoCW(), a.SigCW(), ch.IDMax)
			}
		}
	}
	return nil
}

// Alg2Invariants checks the per-direction Lemma 6 analogues for
// Algorithm 2, the counterclockwise lag (a node that has consumed any
// counterclockwise pulse must already satisfy rho_cw >= ID), and the
// termination-pulse accounting.
type Alg2Invariants struct {
	// IDMax is the largest assigned ID.
	IDMax uint64
}

// OnEvent implements sim.Observer.
func (ch Alg2Invariants) OnEvent(_ *sim.Event, s *sim.Sim[pulse.Pulse]) error {
	for k := 0; k < s.Topology().N(); k++ {
		a, ok := s.Machine(k).(Alg2Counters)
		if !ok {
			return fmt.Errorf("trace: node %d does not expose Algorithm 2 counters", k)
		}
		id := a.ID()
		// Clockwise instance: exactly Lemma 6.
		rho, sig := a.RhoCW(), a.SigCW()
		if sig == 0 && rho == 0 {
			continue // node not yet awake
		}
		switch {
		case rho < id && sig != rho+1:
			return fmt.Errorf("trace: CW Lemma 6.1 violated at node %d: rho=%d ID=%d sigma=%d", k, rho, id, sig)
		case rho >= id && sig != rho:
			return fmt.Errorf("trace: CW Lemma 6.2 violated at node %d: rho=%d ID=%d sigma=%d", k, rho, id, sig)
		case rho > ch.IDMax:
			return fmt.Errorf("trace: CW Corollary 14 violated at node %d: rho=%d > %d", k, rho, ch.IDMax)
		}
		// Counterclockwise instance, with the termination pulse folded in.
		rho, sig = a.RhoCCW(), a.SigCCW()
		term := a.Status().Terminated
		switch {
		case sig == 0 && rho != 0:
			return fmt.Errorf("trace: node %d consumed CCW pulses before starting its CCW instance", k)
		case sig == 0:
			// Not started; nothing more to check.
		case a.TerminationPulseSent() && !term && sig != rho+1:
			return fmt.Errorf("trace: termination accounting violated at node %d: rho_ccw=%d sigma_ccw=%d", k, rho, sig)
		case a.TerminationPulseSent() && term && sig != rho:
			return fmt.Errorf("trace: terminated leader accounting violated at node %d: rho_ccw=%d sigma_ccw=%d", k, rho, sig)
		case !a.TerminationPulseSent() && rho < id && sig != rho+1:
			return fmt.Errorf("trace: CCW Lemma 6.1 violated at node %d: rho=%d ID=%d sigma=%d", k, rho, id, sig)
		case !a.TerminationPulseSent() && rho >= id && sig != rho && sig != rho+1:
			// sig == rho+1 is legal transiently only for a node that has
			// forwarded the termination pulse... which terminates it, so
			// after termination sig == rho must hold again.
			return fmt.Errorf("trace: CCW Lemma 6.2 violated at node %d: rho=%d ID=%d sigma=%d", k, rho, id, sig)
		}
		// Lag: consuming CCW requires rho_cw >= ID (the line-9 guard).
		if a.RhoCCW() > 0 && a.RhoCW() < id {
			return fmt.Errorf("trace: lag violated at node %d: rho_ccw=%d with rho_cw=%d < ID=%d",
				k, a.RhoCCW(), a.RhoCW(), id)
		}
	}
	return nil
}

// Recorder accumulates every event of a run for postmortem inspection.
type Recorder struct {
	Events []sim.Event
}

// OnEvent implements sim.Observer.
func (r *Recorder) OnEvent(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
	cp := *e
	cp.Sends = append([]sim.SendRec(nil), e.Sends...)
	r.Events = append(r.Events, cp)
	return nil
}

// String renders the recorded execution, one line per event.
func (r *Recorder) String() string {
	var b strings.Builder
	for _, e := range r.Events {
		switch e.Kind {
		case sim.EvInit:
			fmt.Fprintf(&b, "%4d init    node %d", e.Step, e.Node)
		case sim.EvDeliver:
			fmt.Fprintf(&b, "%4d deliver node %d <- %s pulse on %s", e.Step, e.Node, e.Dir, e.Port)
		}
		for _, snd := range e.Sends {
			fmt.Fprintf(&b, " | send %s", snd.Dir)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the recorded execution as a machine-readable document: an
// envelope with the event count and the raw events (kinds are numeric as
// in sim: 1 = init, 2 = deliver; directions: 1 = CW, 2 = CCW). Consumed by
// external tooling via `ringsim -trace -json`.
func (r *Recorder) JSON() ([]byte, error) {
	doc := struct {
		Events int         `json:"events"`
		Log    []sim.Event `json:"log"`
	}{Events: len(r.Events), Log: r.Events}
	return json.MarshalIndent(doc, "", "  ")
}
