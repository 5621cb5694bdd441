package check

import (
	"errors"
	"fmt"

	"coleader/internal/fault"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// Step is one scheduled event of a witness: a node wake-up (Init >= 0), a
// delivery from channel Chan (Init < 0), or — in fault-aware explorations
// — an injection (Fault != 0, targeting the channel Chan for Loss, Dup,
// and Spurious, the node Init otherwise; Mask is the Corrupt XOR mask).
type Step struct {
	Init  int         // node to initialize (or fault target), or -1
	Chan  int         // channel to deliver from (or fault target) when Init < 0
	Fault fault.Class // injected fault class, or 0 for a scheduler step
	Mask  byte        // corrupt mask when Fault is fault.Corrupt
}

// String renders the step.
func (s Step) String() string {
	switch {
	case s.Fault == fault.Corrupt:
		return fmt.Sprintf("inject corrupt node %d (mask %#02x)", s.Init, s.Mask)
	case s.Fault != 0 && s.Chan >= 0:
		return fmt.Sprintf("inject %v ch%d (node %d port %d)", s.Fault, s.Chan, s.Chan/2, s.Chan%2)
	case s.Fault != 0:
		return fmt.Sprintf("inject %v node %d", s.Fault, s.Init)
	case s.Init >= 0:
		return fmt.Sprintf("init %d", s.Init)
	}
	return fmt.Sprintf("deliver ch%d (node %d port %d)", s.Chan, s.Chan/2, s.Chan%2)
}

// WitnessError carries the exact schedule that led the exploration to a
// violation, so the failure can be replayed in the full simulator (with
// tracing, diagrams, invariant checkers) via Replay.
type WitnessError struct {
	// Reason is the underlying violation.
	Reason error
	// Steps is the schedule from the initial state to the violation. When
	// the exploration initialized all nodes upfront (ExploreInits false),
	// the implicit init steps are included explicitly, so Steps is always
	// self-contained.
	Steps []Step
}

// Error implements error.
func (w *WitnessError) Error() string {
	return fmt.Sprintf("%v\nwitness schedule (%d steps; replay with check.Replay)", w.Reason, len(w.Steps))
}

// Unwrap implements errors.Unwrap.
func (w *WitnessError) Unwrap() error { return w.Reason }

// Witness extracts the witness schedule from an exploration error, if one
// is attached.
func Witness(err error) ([]Step, bool) {
	var w *WitnessError
	if errors.As(err, &w) {
		return append([]Step(nil), w.Steps...), true
	}
	return nil, false
}

// Replay executes a witness schedule step by step on a fresh simulator
// built from the same configuration, with the given observers attached.
// It returns the simulator's result; errors during replay are expected
// when the witness leads to a violation (that is its purpose) and are
// returned for inspection rather than treated as replay failures.
func Replay(cfg Config, steps []Step, obs ...sim.Observer[pulse.Pulse]) (sim.Result, error) {
	ms, err := cfg.NewMachines()
	if err != nil {
		return sim.Result{}, err
	}
	opts := make([]sim.Option[pulse.Pulse], 0, len(obs))
	for _, o := range obs {
		opts = append(opts, sim.WithObserver[pulse.Pulse](o))
	}
	// The scheduler is irrelevant: Replay drives deliveries manually.
	s, err := sim.New(cfg.Topo, ms, sim.Canonical{}, opts...)
	if err != nil {
		return sim.Result{}, err
	}
	for i, st := range steps {
		var stepErr error
		switch {
		case st.Fault != 0:
			// The simulator's fault plane replays sampled schedules, not
			// arbitrary injections; faulted witnesses document, they do
			// not replay.
			stepErr = fmt.Errorf("fault step cannot be replayed")
		case st.Init >= 0:
			stepErr = s.InitNode(st.Init)
		default:
			stepErr = s.Deliver(st.Chan)
		}
		if stepErr != nil {
			return s.Result(), fmt.Errorf("check: replay step %d (%s): %w", i, st, stepErr)
		}
	}
	return s.Result(), nil
}
