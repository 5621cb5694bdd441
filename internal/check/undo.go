package check

import (
	"errors"
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// stepper owns the apply/revert machinery over one mutable state. All
// scratch storage — the key buffers, the machine-snapshot arena, the
// send-undo log, and the choice arena — lives here and is reused with
// stack discipline, so stepping allocates nothing once the arenas have
// grown to the exploration's depth. Every undoExplorer embeds one, and
// buildRoot runs the init prefix on a throwaway one: apply/revert is the
// package's only way to execute a step.
//
// The stepper also keeps the state's component sum (see componentSum)
// current, fault section included: apply adds what the step changed
// where each field moves (the collector adds each send) and revert
// restores the sum saved in the frame, so sum always equals
// componentSum(st).
type stepper struct {
	topo ring.Topology
	n    int
	st   *state

	sum   uint64   // componentSum of st, kept incrementally
	terms []uint64 // per-machine terms of sum

	keyBuf       []byte
	hashBuf      []byte  // one machine's snapshot
	snapArena    []byte  // machine snapshots, stacked per applied step
	sendArena    []int32 // channel ids incremented, stacked per applied step
	choiceArena  []int32 // schedulable events, stacked per visited state
	faultScratch []byte  // corrupt-mask staging buffer (fault mode)
	col          collector
	statuses     []node.Status
	leaders      []int
}

// undoFrame records what one apply changed, so revert can put it back.
type undoFrame struct {
	mach      int32
	deliverCh int32 // -1 for an init step
	snapOff   int32 // snapArena length before the step
	sendOff   int32 // sendArena length before the step
	// fault marks the frame as a fault injection (mach/deliverCh then
	// name the target); wasCrashed preserves a Restart victim's flag.
	fault      faultClass
	wasCrashed bool
	// sum and term are the stepper's component sum and machine mach's
	// term before the step; revert restores both.
	sum, term uint64
}

// reset points the stepper at a new state, discards all stacked scratch
// (capacity is kept) and computes the state's component sum from scratch.
func (sp *stepper) reset(st *state) {
	sp.st = st
	sp.snapArena = sp.snapArena[:0]
	sp.sendArena = sp.sendArena[:0]
	sp.choiceArena = sp.choiceArena[:0]
	if cap(sp.terms) < len(st.ms) {
		sp.terms = make([]uint64, len(st.ms))
	}
	sp.terms = sp.terms[:len(st.ms)]
	sp.sum, sp.hashBuf = componentSum(st, sp.terms, sp.hashBuf)
}

// fingerprint is the current state's memo fingerprint, from the running
// component sum.
func (sp *stepper) fingerprint() uint64 { return mix64(sp.sum) }

// memoKey is the full state key when the memo mode needs one, else nil.
func (sp *stepper) memoKey(mode MemoMode) []byte {
	if !mode.keyed() {
		return nil
	}
	return sp.key()
}

// retally folds one handler run's machine change into the component
// sum: machine k's term is re-encoded from its snapshot. The handler's
// sends were added by the collector as they happened.
func (sp *stepper) retally(k int) {
	sp.hashBuf = sp.st.ms[k].SnapshotTo(sp.hashBuf[:0])
	t := machineTerm(k, sp.hashBuf)
	sp.sum += t - sp.terms[k]
	sp.terms[k] = t
}

// key encodes the current state into the reusable key buffer. The result
// is valid until the next call.
func (sp *stepper) key() []byte {
	sp.keyBuf = appendStateKey(sp.keyBuf[:0], sp.st)
	return sp.keyBuf
}

// apply executes one step in place, first snapshotting the one machine it
// runs and logging every channel the handler increments. The returned
// frame reverts the step — including after a failed apply: the snapshot
// precedes the handler and every queue change is logged, and Restore
// clears any error the handler left, so revert restores the pre-step state
// exactly (fault mode prunes violating edges instead of aborting).
func (sp *stepper) apply(s Step) (undoFrame, error) {
	if s.Fault != 0 {
		return sp.applyFault(s)
	}
	k := s.Init
	ch := int32(-1)
	if k < 0 {
		k = s.Chan / 2
		ch = int32(s.Chan)
	}
	fr := undoFrame{
		mach:      int32(k),
		deliverCh: ch,
		snapOff:   int32(len(sp.snapArena)),
		sendOff:   int32(len(sp.sendArena)),
		sum:       sp.sum,
		term:      sp.terms[k],
	}
	m := sp.st.ms[k]
	sp.snapArena = m.SnapshotTo(sp.snapArena)
	if fx := sp.st.fx; fx != nil && fx.windowed {
		sp.sum += fx.tick(fx.handlerCnt, windowHandlers, k)
		if ch >= 0 {
			sp.sum += fx.tick(fx.delivCnt, windowDelivs, int(ch))
		}
	}
	sp.col = collector{topo: sp.topo, st: sp.st, from: k, log: &sp.sendArena, sum: &sp.sum}
	if ch < 0 {
		sp.st.inited[k] = true
		sp.sum += initWeight(k)
		m.Init(&sp.col)
	} else {
		sp.st.queues[ch]--
		sp.sum -= chanWeight(int(ch))
		m.OnMsg(pulse.Port(int(ch)&1), pulse.Pulse{}, &sp.col)
	}
	sp.retally(k)
	if sp.col.err != nil {
		return fr, sp.col.err
	}
	return fr, sp.st.afterHandler(k)
}

// revert undoes an applied step: queue increments come back off the send
// log, the consumed pulse (or init bit) is restored, the machine rewinds
// from its snapshot, and the component sum and machine term are restored
// from the frame.
func (sp *stepper) revert(fr undoFrame) {
	sp.sum = fr.sum
	if fr.mach >= 0 {
		sp.terms[fr.mach] = fr.term
	}
	if fr.fault != 0 {
		sp.revertFault(fr)
		return
	}
	fx := sp.st.fx
	for _, ch := range sp.sendArena[fr.sendOff:] {
		sp.st.queues[ch]--
		sp.st.sent--
		if fx != nil && fx.windowed {
			fx.sendCnt[ch]--
		}
	}
	sp.sendArena = sp.sendArena[:fr.sendOff]
	k := int(fr.mach)
	if fr.deliverCh >= 0 {
		sp.st.queues[fr.deliverCh]++
	} else {
		sp.st.inited[k] = false
	}
	if fx != nil && fx.windowed {
		fx.handlerCnt[k]--
		if fr.deliverCh >= 0 {
			fx.delivCnt[fr.deliverCh]--
		}
	}
	sp.st.ms[k].Restore(sp.snapArena[fr.snapOff:])
	sp.snapArena = sp.snapArena[:fr.snapOff]
}

// pushChoices appends the schedulable events of the current state to the
// choice arena — inits ascending, then deliveries in channel order, the
// canonical schedule order that witnesses and "first error" are defined
// against — and returns their [base, end) range. Crashed nodes consume
// nothing, so deliveries toward them are excluded (their pulses stay
// queued until a Restart revives them). Entries survive deeper recursion
// because descendants only append past end and truncate back; callers
// restore with popChoices(base).
func (sp *stepper) pushChoices() (base, end int) {
	base = len(sp.choiceArena)
	for k, in := range sp.st.inited {
		if !in {
			sp.choiceArena = append(sp.choiceArena, int32(k))
		}
	}
	for c, q := range sp.st.queues {
		if q == 0 {
			continue
		}
		k := c / 2
		if !sp.st.inited[k] {
			continue
		}
		if sp.st.fx != nil && sp.st.fx.crashed[k] {
			continue
		}
		s := sp.st.ms[k].Status()
		if s.Terminated || !sp.st.ms[k].Ready(pulse.Port(c%2)) {
			continue
		}
		sp.choiceArena = append(sp.choiceArena, int32(sp.n+c))
	}
	return base, len(sp.choiceArena)
}

// stepAt decodes choice-arena entry i (init k -> k, deliver c -> n+c,
// fault branches by their flagged encoding).
func (sp *stepper) stepAt(i int) Step {
	return decodeChoice(sp.n, sp.choiceArena[i])
}

func (sp *stepper) popChoices(base int) { sp.choiceArena = sp.choiceArena[:base] }

// Terminal outcomes of a choice-free state: quiescent with Check passing,
// quiescent with Check failing, or stalled with undeliverable pulses. On a
// clean (never-injected) path the latter two abort the exploration; on a
// faulted path they are counted outcomes.
const (
	terminalClean = iota
	terminalDegraded
	terminalStalled
)

// terminalOutcome classifies a choice-free state and returns the verdict
// error a clean path would abort with (nil for terminalClean). The Final
// slices are the stepper's reusable scratch.
func (sp *stepper) terminalOutcome(check func(Final) error) (int, error) {
	var queued uint32
	for _, q := range sp.st.queues {
		queued += q
	}
	if queued > 0 {
		return terminalStalled, fmt.Errorf("%w: %d pulses undeliverable", ErrStalled, queued)
	}
	if check == nil {
		return terminalClean, nil
	}
	f := Final{Sent: sp.st.sent, Quiescent: true}
	sp.statuses = sp.statuses[:0]
	sp.leaders = sp.leaders[:0]
	for k, m := range sp.st.ms {
		s := m.Status()
		sp.statuses = append(sp.statuses, s)
		if s.State == node.StateLeader {
			sp.leaders = append(sp.leaders, k)
		}
	}
	f.Statuses = sp.statuses
	f.Leaders = sp.leaders
	if err := check(f); err != nil {
		return terminalDegraded, fmt.Errorf("%w: %v", ErrViolation, err)
	}
	return terminalClean, nil
}

// undoExplorer is the exploration engine: depth-first over one mutable
// state, backtracking through the stepper's undo frames instead of
// cloning per branch. The sequential engine runs one; the parallel engine
// runs one per worker, each with pool set.
type undoExplorer struct {
	stepper
	cfg   Config
	memo  memoTable
	rep   FaultReport
	steps []Step // schedule from the root (a worker: from its task) to the current state

	// pool is the parallel engine's shared work pool; nil in the
	// sequential engine. Only the peel, the state budget and the abandon
	// check read it.
	pool *parExplorer
}

// dfs explores everything reachable from the current state, which sits
// at the given depth, and leaves the state as it found it unless it
// returns an error.
func (ex *undoExplorer) dfs(depth int) error {
	base, fend, err := ex.visit(depth)
	if err != nil || base < 0 {
		return err
	}
	for i := base; i < fend; i++ {
		step := ex.stepAt(i)
		if step.Fault != 0 {
			ex.rep.InjectionEdges++
		}
		ex.steps = append(ex.steps, step)
		fr, err := ex.apply(step)
		switch {
		case err != nil:
			err = ex.stepFailed(err)
		case ex.pool != nil && ex.peel(depth+1):
			// Reassigning err keeps it from living across the peel
			// call, which would widen the recursive frame.
			err = nil
		default:
			err = ex.dfs(depth + 1)
		}
		ex.steps = ex.steps[:len(ex.steps)-1]
		if err != nil {
			return err
		}
		ex.revert(fr)
	}
	ex.popChoices(base)
	return nil
}

// visit records the current state, at the given depth, in the memo and
// the report and pushes its choices — protocol steps, then fault branches
// — onto the choice arena. base < 0 means the state was already visited.
// It, stepFailed and peel are kept out of dfs so that their temporaries
// do not widen the recursive frame: dfs recurses once per step, up to
// maxDepth deep, and its frame (216 bytes on amd64) times 2^20 must fit
// the goroutine stack.
func (ex *undoExplorer) visit(depth int) (base, fend int, err error) {
	if ex.pool != nil && ex.pool.failed.Load() {
		return -1, 0, errAbandoned
	}
	added, merr := ex.memo.insert(depth, ex.fingerprint(), ex.memoKey(ex.cfg.Memo))
	if merr != nil {
		return -1, 0, wrapWitness(merr, ex.steps)
	}
	if !added {
		return -1, 0, nil
	}
	if ex.overBudget() {
		return -1, 0, wrapWitness(fmt.Errorf("%w (%d)", ErrStateBudget, ex.cfg.MaxStates), ex.steps)
	}
	if depth > maxDepth {
		return -1, 0, depthError(depth, ex.steps)
	}
	ex.rep.StatesVisited++
	if depth > ex.rep.MaxDepth {
		ex.rep.MaxDepth = depth
	}

	base, end := ex.pushChoices()
	if base == end {
		ex.rep.TerminalStates++
		out, verr := ex.terminalOutcome(ex.cfg.Check)
		if ex.st.fx.faulted() {
			ex.rep.countTerminal(out)
		} else if verr != nil {
			return -1, 0, wrapWitness(verr, ex.steps)
		}
	}
	// Fault branches extend the same choice window: terminal states keep
	// them too (a corrupt-at-quiescence injection is exactly the
	// self-stabilization probe).
	fend = end
	if fx := ex.st.fx; fx != nil && len(fx.log) < fx.plan.Budget {
		fend = ex.pushFaultChoices()
	}
	return base, fend, nil
}

// overBudget reports whether one more state exceeds MaxStates: counted
// by the explorer itself, or in a pool by every worker together.
func (ex *undoExplorer) overBudget() bool {
	if ex.pool != nil {
		return ex.pool.states.Add(1) > int64(ex.cfg.MaxStates)
	}
	return ex.rep.StatesVisited >= ex.cfg.MaxStates
}

// stepFailed classifies a failed apply: on an already-faulted path a
// violation is an injection consequence, counted and pruned (nil) without
// reading its text (which is why the collector and afterHandler leave it
// unformatted there); otherwise it aborts the exploration with the
// schedule as its witness.
func (ex *undoExplorer) stepFailed(err error) error {
	if errors.Is(err, ErrViolation) && ex.st.fx.faulted() {
		ex.rep.ViolationEdges++
		return nil
	}
	return wrapWitness(err, ex.steps)
}
