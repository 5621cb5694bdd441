package check

import (
	"fmt"

	"coleader/internal/fault"
	"coleader/internal/node"
)

// Fault-aware exploration. ExhaustiveFaults branches not only over
// scheduler choices but over fault-injection points — every (class, target,
// position) a fault.Plan allows — so E14's sampled per-class outcomes
// become verified facts over all schedules AND all injection positions for
// small rings.
//
// Soundness of the memo under injection. A fault changes what a state IS:
// two configurations with identical machines and queues behave differently
// if one has a crashed node, and a terminal state's classification (clean /
// degraded) depends on whether the path to it was faulted. The state key
// therefore grows a fault section — the sent counter (no longer derivable
// from machine states once a Restart has rewound one), packed crashed bits,
// the window counters (saturated at Window+1: beyond the window every
// position is equally ineligible), and the injection log itself (class,
// target, mask per entry). Merging two states is then valid exactly when
// they agree on machines, queues, and the entire fault plane, so memo hits
// never conflate a faulted execution with a clean one.
//
// Depth determinism. Every path to a state still has the same length:
// depth = inits + deliveries + injections, where the init bits are in the
// key, injections = len(log) is in the key, and deliveries = sent − queued
// (each queued-or-delivered pulse was counted by sent, and each Loss
// removed an undelivered one from both). All three are functions of the
// key, so StatesVisited, TerminalStates, MaxDepth, and the outcome
// counters are functions of the reachable-state closure — identical at any
// Workers width, exactly as in the faultless explorer. The fingerprint
// memo relies on it too: it looks a state up only among the states of its
// own depth class (fpMemo), which is sound only because a state's depth
// is a function of the state. TestDepthIsStateFunction asserts the
// identity at every visit.
//
// Fault semantics mirror internal/sim's plane handling pulse for pulse:
// Loss removes a queued pulse and uncounts it from Sent (the simulator
// never counts a lost pulse); Dup and Spurious add one and count it; Crash
// freezes a node (its queued pulses become undeliverable, but its channels
// keep accepting — the live inbox counts outlive the node); Restart
// rewinds a node to its pre-Init snapshot and re-runs Init (allowed on
// crashed and terminated nodes, which models the live supervisor's
// amnesia-restart healing); Corrupt XORs a plan mask into the final byte
// of the node's snapshot (the fault.PerturbOutput convention).
//
// Violations after an injection are outcomes, not failures: a path that
// has at least one injection and then trips ErrViolation (a machine fault,
// a send toward a terminated node, termination with queued pulses) is
// counted in ViolationEdges and pruned. Only a violation on a clean path —
// the base protocol misbehaving — aborts with a witness, which is what the
// zero-budget differential pins: an inactive plan reproduces the faultless
// explorer's report byte for byte.

// FaultReport extends Report with the outcome census of a fault-aware
// exploration. The counters partition what the injected executions did;
// all of them are exact and Workers-independent.
type FaultReport struct {
	Report

	// InjectionEdges counts fault branches attempted (one per eligible
	// (class, target, mask) at each state expansion with budget left).
	InjectionEdges int

	// ViolationEdges counts pruned edges: steps on an already-faulted path
	// whose handler outcome was a protocol violation. These are expected
	// consequences of injection (e.g. a restarted node pulsing a neighbor
	// that already terminated), recorded and not explored further.
	ViolationEdges int

	// CleanTerminals counts quiescent terminal states of faulted paths
	// where the Check callback still passed: the fault healed completely.
	CleanTerminals int

	// DegradedTerminals counts quiescent terminal states of faulted paths
	// where Check failed: the ring quiesced but the guarantee (leader,
	// pulse count, termination) degraded.
	DegradedTerminals int

	// StalledTerminals counts terminal states of faulted paths with
	// undeliverable pulses left (e.g. stranded at a crashed node).
	StalledTerminals int
}

// ExhaustiveFaults explores every schedule of cfg interleaved with every
// fault injection plan allows, and returns the outcome census. A plan that
// normalizes to inactive (zero budget or no classes) degenerates to
// Exhaustive: same states, same report, same verdict.
//
// When cfg.ExploreInits is false the upfront init prefix is applied before
// exploration starts, so injection positions inside that prefix are not
// branched over; set ExploreInits to cover init-time faults.
//
// On error the partially accumulated report is returned alongside it, so
// divergent instances (ErrStateBudget) still report how far they got.
func ExhaustiveFaults(cfg Config, plan fault.Plan) (FaultReport, error) {
	p, err := plan.Normalize()
	if err != nil {
		return FaultReport{}, err
	}
	if p.Budget > maxPlanBudget {
		return FaultReport{}, fmt.Errorf("check: plan budget %d exceeds %d", p.Budget, maxPlanBudget)
	}
	if 2*cfg.Topo.N() > faultTargetMask {
		return FaultReport{}, fmt.Errorf("check: fault exploration supports at most %d nodes", faultTargetMask/2)
	}
	cfg.plan = p
	return exhaustive(cfg)
}

// maxPlanBudget bounds the per-path injection count so the log length fits
// one key byte.
const maxPlanBudget = 255

// Choice-arena encoding of a fault branch: bit 24 flags the entry, bits
// 20-23 carry the class, 12-19 the corrupt mask, 0-11 the target (node for
// node classes, channel for channel classes).
const (
	faultChoiceFlag = 1 << 24
	faultClassShift = 20
	faultMaskShift  = 12
	faultTargetMask = 0xFFF
)

func encodeFaultChoice(cl fault.Class, mask byte, target int) int32 {
	return faultChoiceFlag | int32(cl)<<faultClassShift | int32(mask)<<faultMaskShift | int32(target)
}

// decodeChoice decodes one choice-arena entry: init k -> k, deliver c ->
// n+c, fault branches by the flagged encoding above.
func decodeChoice(n int, v int32) Step {
	if v&faultChoiceFlag == 0 {
		if int(v) < n {
			return Step{Init: int(v), Chan: -1}
		}
		return Step{Init: -1, Chan: int(v) - n}
	}
	cl := fault.Class(v >> faultClassShift & 0xF)
	mask := byte(v >> faultMaskShift & 0xFF)
	target := int(v & faultTargetMask)
	switch cl {
	case fault.Loss, fault.Dup, fault.Spurious:
		return Step{Init: -1, Chan: target, Fault: cl}
	default:
		return Step{Init: target, Chan: -1, Fault: cl, Mask: mask}
	}
}

// faultClass aliases fault.Class so undoFrame can hold one without the
// field name shadowing the package.
type faultClass = fault.Class

// faultRec is one injection on the current path, as folded into the key.
type faultRec struct {
	class  fault.Class
	target uint16
	mask   byte
}

// faultX is the fault plane of one exploration state: the plan (shared,
// read-only), the pre-Init snapshots Restart rewinds to (shared), and the
// per-path mutable plane — crashed flags, the injection log, and, when the
// plan is windowed, the exact per-entity event counters that decide
// injection eligibility. The counters are exact (not saturated) in the
// state so undo stays invertible; only the key saturates them.
type faultX struct {
	plan      fault.Plan
	initSnaps [][]byte
	windowed  bool

	crashed    []bool
	log        []faultRec
	handlerCnt []uint32 // per node; nil unless windowed
	sendCnt    []uint32 // per channel; nil unless windowed
	delivCnt   []uint32 // per channel; nil unless windowed
}

// newFaultX builds the root fault plane. plan must be normalized and
// active.
func newFaultX(plan fault.Plan, ms []machine) *faultX {
	n := len(ms)
	fx := &faultX{
		plan:     plan,
		windowed: plan.Window > 0,
		crashed:  make([]bool, n),
	}
	if plan.Classes.Has(fault.Restart) {
		fx.initSnaps = make([][]byte, n)
		for k, m := range ms {
			fx.initSnaps[k] = m.SnapshotTo(nil)
		}
	}
	if fx.windowed {
		fx.handlerCnt = make([]uint32, n)
		fx.sendCnt = make([]uint32, 2*n)
		fx.delivCnt = make([]uint32, 2*n)
	}
	return fx
}

// clone deep-copies the mutable plane; plan and initSnaps are shared.
func (fx *faultX) clone() *faultX {
	if fx == nil {
		return nil
	}
	cp := &faultX{
		plan:      fx.plan,
		initSnaps: fx.initSnaps,
		windowed:  fx.windowed,
		crashed:   append([]bool(nil), fx.crashed...),
		log:       append([]faultRec(nil), fx.log...),
	}
	if fx.windowed {
		cp.handlerCnt = append([]uint32(nil), fx.handlerCnt...)
		cp.sendCnt = append([]uint32(nil), fx.sendCnt...)
		cp.delivCnt = append([]uint32(nil), fx.delivCnt...)
	}
	return cp
}

// faulted reports whether the current path has at least one injection.
func (fx *faultX) faulted() bool { return fx != nil && len(fx.log) > 0 }

// note appends the injection to the path log and returns the weight the
// entry adds to the component sum. It runs before the fault's effects so
// that error classification (which asks "was this path faulted?")
// already sees the entry.
func (fx *faultX) note(s Step) uint64 {
	t := s.Chan
	if t < 0 {
		t = s.Init
	}
	r := faultRec{class: s.Fault, target: uint16(t), mask: s.Mask}
	fx.log = append(fx.log, r)
	return logWeight(len(fx.log)-1, r)
}

// The window counter sets, as windowWeight numbers them.
const (
	windowHandlers = iota
	windowSends
	windowDelivs
)

// tick counts one event on counter i of a windowed plan's counter set
// (cs is handlerCnt, sendCnt or delivCnt, numbered set) and returns the
// weight the count adds to the component sum: the counter's weight while
// it stays within Window+1, where the key saturates it, else nothing.
func (fx *faultX) tick(cs []uint32, set, i int) uint64 {
	cs[i]++
	if uint64(cs[i]) > fx.plan.Window+1 {
		return 0
	}
	return windowWeight(set, i)
}

// sum is the fault section's part of the component sum, from scratch:
// the sent counter, the crashed bits, the injection log and, for a
// windowed plan, every counter at its saturated value — the fields
// appendFaultKey encodes.
func (fx *faultX) sum(sent uint64) uint64 {
	s := sent * sentWeight
	for k, c := range fx.crashed {
		if c {
			s += crashWeight(k)
		}
	}
	for i, r := range fx.log {
		s += logWeight(i, r)
	}
	if fx.windowed {
		sat := fx.plan.Window + 1
		for set, cs := range [...][]uint32{fx.handlerCnt, fx.sendCnt, fx.delivCnt} {
			for i, c := range cs {
				s += min(uint64(c), sat) * windowWeight(set, i)
			}
		}
	}
	return s
}

// Window eligibility: a node fault needs the victim's handler count still
// inside the window, Loss/Dup the channel's send count, Spurious the
// channel's delivery count. An unwindowed plan admits every position.
func (fx *faultX) okNode(k int) bool {
	return !fx.windowed || uint64(fx.handlerCnt[k]) <= fx.plan.Window
}

func (fx *faultX) okSend(c int) bool {
	return !fx.windowed || uint64(fx.sendCnt[c]) <= fx.plan.Window
}

func (fx *faultX) okDeliv(c int) bool {
	return !fx.windowed || uint64(fx.delivCnt[c]) <= fx.plan.Window
}

// appendFaultKey folds the fault plane into the full state key (see the
// memo soundness note atop this file); the fingerprint memo hashes the
// same fields as component terms instead (faultX.sum). Counters saturate
// at Window+1 — two states whose counters are both past the window admit
// the same injections forever after, so merging them is sound.
func appendFaultKey(b []byte, fx *faultX, sent uint64) []byte {
	b = node.AppendKey64(b, sent)
	var w byte
	for i, c := range fx.crashed {
		if c {
			w |= 1 << (i & 7)
		}
		if i&7 == 7 {
			b = append(b, w)
			w = 0
		}
	}
	if len(fx.crashed)&7 != 0 {
		b = append(b, w)
	}
	if fx.windowed {
		sat := uint32(fx.plan.Window) + 1
		for _, cs := range [][]uint32{fx.handlerCnt, fx.sendCnt, fx.delivCnt} {
			for _, c := range cs {
				if c > sat {
					c = sat
				}
				b = append(b, byte(c), byte(c>>8))
			}
		}
	}
	b = append(b, byte(len(fx.log)))
	for _, r := range fx.log {
		b = append(b, byte(r.class), byte(r.target), byte(r.target>>8), r.mask)
	}
	return b
}

// faultClassOrder fixes the canonical branch order of fault classes.
var faultClassOrder = [...]fault.Class{
	fault.Loss, fault.Dup, fault.Spurious, fault.Crash, fault.Restart, fault.Corrupt,
}

// appendFaultChoices appends every injection eligible in st — classes in
// canonical order, targets ascending, corrupt masks in plan order — the
// fault counterpart of the canonical schedule order.
func appendFaultChoices(st *state, arena []int32) []int32 {
	fx := st.fx
	n := len(st.ms)
	for _, cl := range faultClassOrder {
		if !fx.plan.Classes.Has(cl) {
			continue
		}
		switch cl {
		case fault.Loss, fault.Dup:
			for c := 0; c < 2*n; c++ {
				if st.queues[c] > 0 && fx.okSend(c) {
					arena = append(arena, encodeFaultChoice(cl, 0, c))
				}
			}
		case fault.Spurious:
			for c := 0; c < 2*n; c++ {
				if !st.ms[c/2].Status().Terminated && fx.okDeliv(c) {
					arena = append(arena, encodeFaultChoice(cl, 0, c))
				}
			}
		case fault.Crash:
			for k := 0; k < n; k++ {
				if st.inited[k] && !fx.crashed[k] && !st.ms[k].Status().Terminated && fx.okNode(k) {
					arena = append(arena, encodeFaultChoice(cl, 0, k))
				}
			}
		case fault.Restart:
			// Crashed and terminated nodes stay eligible: restarting them
			// is resurrection/revival, the checker-side model of the live
			// supervisor's RestoreInit healing.
			for k := 0; k < n; k++ {
				if st.inited[k] && fx.okNode(k) {
					arena = append(arena, encodeFaultChoice(cl, 0, k))
				}
			}
		case fault.Corrupt:
			for k := 0; k < n; k++ {
				if st.inited[k] && !fx.crashed[k] && !st.ms[k].Status().Terminated && fx.okNode(k) {
					for _, m := range fx.plan.CorruptMasks {
						arena = append(arena, encodeFaultChoice(cl, m, k))
					}
				}
			}
		}
	}
	return arena
}

// applyFault executes a fault step in place with an undo frame. Like
// stepper.apply, a failed application leaves the state fully logged and
// revertible: the machine snapshot precedes the handler, sends are on the
// send log, and the injection is on the path log, so revert restores the
// pre-step state exactly.
func (sp *stepper) applyFault(s Step) (undoFrame, error) {
	st := sp.st
	fx := st.fx
	fr := undoFrame{
		mach:      -1,
		deliverCh: -1,
		snapOff:   int32(len(sp.snapArena)),
		sendOff:   int32(len(sp.sendArena)),
		fault:     s.Fault,
		sum:       sp.sum,
	}
	sp.sum += fx.note(s)
	if s.Init >= 0 {
		// Every node-targeted frame saves the term, since revert restores
		// it for any frame naming a machine.
		fr.term = sp.terms[s.Init]
	}
	switch s.Fault {
	case fault.Loss:
		fr.deliverCh = int32(s.Chan)
		st.queues[s.Chan]--
		st.sent--
		sp.sum -= chanWeight(s.Chan) + sentWeight
		return fr, nil
	case fault.Dup, fault.Spurious:
		fr.deliverCh = int32(s.Chan)
		st.queues[s.Chan]++
		st.sent++
		sp.sum += chanWeight(s.Chan) + sentWeight
		return fr, nil
	case fault.Crash:
		fr.mach = int32(s.Init)
		fx.crashed[s.Init] = true
		sp.sum += crashWeight(s.Init)
		return fr, nil
	case fault.Restart:
		k := s.Init
		fr.mach = int32(k)
		fr.wasCrashed = fx.crashed[k]
		m := st.ms[k]
		sp.snapArena = m.SnapshotTo(sp.snapArena)
		if fr.wasCrashed {
			fx.crashed[k] = false
			sp.sum -= crashWeight(k)
		}
		m.Restore(fx.initSnaps[k])
		if fx.windowed {
			sp.sum += fx.tick(fx.handlerCnt, windowHandlers, k)
		}
		sp.col = collector{topo: sp.topo, st: st, from: k, log: &sp.sendArena, sum: &sp.sum}
		m.Init(&sp.col)
		sp.retally(k)
		if sp.col.err != nil {
			return fr, sp.col.err
		}
		return fr, st.afterHandler(k)
	case fault.Corrupt:
		k := s.Init
		fr.mach = int32(k)
		m := st.ms[k]
		sp.snapArena = m.SnapshotTo(sp.snapArena)
		if snap := sp.snapArena[fr.snapOff:]; len(snap) > 0 {
			sp.faultScratch = append(sp.faultScratch[:0], snap...)
			sp.faultScratch[len(sp.faultScratch)-1] ^= s.Mask
			m.Restore(sp.faultScratch)
		}
		sp.retally(k)
		return fr, st.afterHandler(k)
	}
	return fr, fmt.Errorf("check: unknown fault class %v", s.Fault)
}

// revertFault undoes one applied fault step (successful or failed).
func (sp *stepper) revertFault(fr undoFrame) {
	st := sp.st
	fx := st.fx
	fx.log = fx.log[:len(fx.log)-1]
	switch fr.fault {
	case fault.Loss:
		st.queues[fr.deliverCh]++
		st.sent++
	case fault.Dup, fault.Spurious:
		st.queues[fr.deliverCh]--
		st.sent--
	case fault.Crash:
		fx.crashed[fr.mach] = false
	case fault.Restart:
		for _, ch := range sp.sendArena[fr.sendOff:] {
			st.queues[ch]--
			st.sent--
			if fx.windowed {
				fx.sendCnt[ch]--
			}
		}
		sp.sendArena = sp.sendArena[:fr.sendOff]
		k := int(fr.mach)
		fx.crashed[k] = fr.wasCrashed
		if fx.windowed {
			fx.handlerCnt[k]--
		}
		st.ms[k].Restore(sp.snapArena[fr.snapOff:])
		sp.snapArena = sp.snapArena[:fr.snapOff]
	case fault.Corrupt:
		st.ms[fr.mach].Restore(sp.snapArena[fr.snapOff:])
		sp.snapArena = sp.snapArena[:fr.snapOff]
	}
}

// pushFaultChoices appends the eligible injections of the current state to
// the choice arena (after the protocol choices) and returns the new end.
func (sp *stepper) pushFaultChoices() int {
	sp.choiceArena = appendFaultChoices(sp.st, sp.choiceArena)
	return len(sp.choiceArena)
}
