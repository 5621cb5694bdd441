package fault

import "fmt"

// Plan bounds the fault space of an exhaustive exploration (internal/check
// branches over it). Where a Plane is one sampled schedule — concrete
// (class, target, trigger) draws — a Plan is the whole space: the checker
// injects every enabled class at every eligible target in every reachable
// state, up to Budget injections per execution path.
//
// The zero Plan is valid and means "no faults": an exploration under it is
// exactly the fault-free exploration.
type Plan struct {
	// Classes is the set of fault classes to branch over.
	Classes Set

	// Budget caps the number of injections along any single execution
	// path (not across the whole exploration). Zero disables injection
	// even if Classes is non-empty.
	Budget int

	// Window, when positive, bounds how late an injection may happen,
	// measured in the target entity's local event count at the point of
	// injection: node faults require the victim's handler count <= Window,
	// Loss/Dup require the channel's send count <= Window, and Spurious
	// requires the channel's delivery count <= Window. Zero means
	// unbounded (any reachable position). This is the exhaustive
	// counterpart of a Plane's Horizon: a Plane samples trigger ordinals
	// from [1, Horizon], a Plan explores every position inside Window.
	Window uint64

	// CorruptMasks lists the nonzero masks a Corrupt injection XORs into
	// the target's final snapshot byte (the PerturbOutput convention:
	// every core machine's Undoable encoding ends with its output byte).
	// Each mask is a separate branch. Nil selects the eight single-bit
	// masks, i.e. every single-bit output corruption.
	CorruptMasks []byte
}

// maxPlanWindow bounds Window so saturated counters fit the two bytes
// per counter of the checker's fault-section key.
const maxPlanWindow = 1 << 15

// Normalize validates the plan and fills defaults (the single-bit
// CorruptMasks). A plan with Budget 0 normalizes to the zero Plan.
func (p Plan) Normalize() (Plan, error) {
	if p.Budget < 0 {
		return Plan{}, fmt.Errorf("fault: negative plan budget %d", p.Budget)
	}
	if p.Budget == 0 || p.Classes == 0 {
		return Plan{}, nil
	}
	if p.Window > maxPlanWindow {
		return Plan{}, fmt.Errorf("fault: plan window %d exceeds %d", p.Window, maxPlanWindow)
	}
	for _, m := range p.CorruptMasks {
		if m == 0 {
			return Plan{}, fmt.Errorf("fault: zero corrupt mask (a zero XOR is not a corruption)")
		}
	}
	if p.Classes.Has(Corrupt) && len(p.CorruptMasks) == 0 {
		p.CorruptMasks = []byte{1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7}
	}
	return p, nil
}

// Active reports whether the plan schedules any injections.
func (p Plan) Active() bool { return p.Budget > 0 && p.Classes != 0 }
