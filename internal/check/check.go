// Package check exhaustively explores every asynchronous schedule of a
// pulse algorithm on a small ring: all interleavings of node wake-ups and
// pulse deliveries. Because content-oblivious executions are fully
// determined by the delivery order — and pulses within one channel are
// indistinguishable — the explored graph covers the entire behavior of the
// model of Section 2, turning claims like "Theorem 1 holds under every
// schedule" into machine-checked facts for small instances.
//
// Every machine must be node.Undoable, and its SnapshotTo bytes are its
// whole explored state: its undo record, its memo key, and what a parallel
// worker restores a handed-off subtree from. A content-oblivious node's
// state is a few counters and flags, its construction constants are fixed
// per node index — every Config.NewMachines call must build the same ones
// — and the memo salts each machine's key by that index. The state
// space is pruned by memoizing canonical states (each machine's snapshot
// plus per-channel queue depths and init bits), which keeps the
// exploration polynomial in ID_max for the paper's algorithms even though
// the raw schedule tree is exponential.
//
// Four engine-level optimizations make larger instances tractable:
//
//   - Undo-based DFS: instead of deep-copying the machine slice per
//     branch, the explorer snapshots the one machine a step mutates into a
//     shared arena, applies the step in place, and reverts on backtrack
//     via an undo log of queue, init-bit, and sent-counter deltas. The
//     stepper's apply/revert is the only code that executes a step.
//   - A fingerprint memo table (MemoFingerprint): 64-bit state
//     fingerprints in open-addressing tables replace the
//     map[string]struct{} of full keys, eliminating the per-state string
//     copy. A fingerprint is a sum of per-component hashes — one per
//     machine, queued pulse and init bit, and in fault mode one per
//     counted pulse, crashed node, injection-log entry and window count;
//     the undo stepper keeps the sum current as it applies and reverts
//     steps, so a visit re-encodes only the machine the step ran and
//     never builds the whole state key. The table is split into depth
//     classes, since a state can only match a state of its own depth.
//     MemoAudit certifies a run collision-free.
//   - Faulted paths prune their violations without formatting them: a
//     violation after an injection is counted, never shown, so it is the
//     bare ErrViolation there; clean paths keep the full error text.
//   - Parallel exploration (Config.Workers > 1): a work-sharing pool over
//     subtree tasks with the visited set sharded behind per-shard locks.
//     Every worker runs the undo DFS over machines of its own; it shares a
//     branch by applying it, copying the successor's machine snapshots,
//     queues and fault plane into a task, and reverting, and it starts a
//     task by restoring its machines from the task's snapshots.
//     Because every path to a state has the same length (each step is one
//     init or one delivery, both counted by the state itself), the report
//     counters are functions of the reachable-state closure and therefore
//     independent of exploration order; on any failure the engine reruns
//     sequentially so the verdict and witness are the canonical DFS-order
//     ones at every width.
package check

import (
	"errors"
	"fmt"

	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// Final summarizes a terminal (choice-free) state handed to the Check
// callback. The Statuses and Leaders slices are reused across terminal
// states by the exploring engine: a Check callback must not retain them
// past the call.
type Final struct {
	// Statuses holds each node's final status.
	Statuses []node.Status
	// Leaders lists the nodes in the Leader state.
	Leaders []int
	// Sent is the total number of pulses sent along this execution.
	Sent uint64
	// Quiescent reports whether no pulse remained queued. Terminal states
	// are quiescent unless the run stalled (which Exhaustive reports as an
	// error before calling Check).
	Quiescent bool
}

// Config describes one exhaustive exploration.
type Config struct {
	// Topo is the (small) ring to explore.
	Topo ring.Topology

	// NewMachines returns fresh machines for the exploration's root state.
	// Every machine must implement node.Undoable; its snapshot is its undo
	// record, its memo key and its part of a parallel worker's task. It is
	// called once for the root, once per parallel worker, and again for
	// the sequential rerun after a parallel failure; every call must return
	// machines with the same construction constants (IDs, port labels,
	// schemes, seeds), which snapshots leave out.
	NewMachines func() ([]node.PulseMachine, error)

	// ExploreInits also branches over node wake-up interleavings. When
	// false, all nodes are initialized upfront in index order and only
	// delivery orders are explored.
	ExploreInits bool

	// MaxStates caps the number of distinct states visited; exceeding it
	// is an error. Zero means 1 << 22.
	MaxStates int

	// Check is invoked at every distinct terminal state; returning an
	// error aborts the exploration with a witness schedule attached. When
	// Workers > 1 the callback is invoked concurrently from multiple
	// exploration goroutines and must be safe for concurrent use.
	Check func(Final) error

	// Workers is the number of parallel exploration workers; values <= 1
	// select the sequential explorer. Report counts, terminal verdicts,
	// and the first witness are identical at any width.
	Workers int

	// Memo selects the visited-set representation; the zero value is
	// MemoFingerprint.
	Memo MemoMode

	// plan is the normalized fault plan of an ExhaustiveFaults run; the
	// zero value (all Exhaustive runs) disables the fault plane entirely.
	plan fault.Plan
}

// Report summarizes a completed exploration.
type Report struct {
	// StatesVisited counts distinct (memoized) states.
	StatesVisited int
	// TerminalStates counts distinct terminal states checked.
	TerminalStates int
	// MaxDepth is the longest schedule explored (events from the root).
	MaxDepth int
}

// Exploration errors.
var (
	// ErrStateBudget: the exploration exceeded Config.MaxStates.
	ErrStateBudget = errors.New("check: state budget exceeded")

	// ErrStalled: some schedule reaches a non-quiescent state with no
	// deliverable pulse.
	ErrStalled = errors.New("check: stalled terminal state")

	// ErrViolation: a machine fault or quiescent-termination violation.
	ErrViolation = errors.New("check: protocol violation")

	// ErrFingerprintCollision: MemoAudit found two distinct states with
	// the same 64-bit fingerprint (a MemoFingerprint run would have
	// silently merged them).
	ErrFingerprintCollision = errors.New("check: state-key fingerprint collision")

	// ErrDepthBound: a schedule grew deeper than the explorer's recursion
	// bound (maxDepth). It wraps ErrStateBudget: the exploration stopped
	// short of its frontier, and more states would not help.
	ErrDepthBound = fmt.Errorf("%w (schedule depth bound)", ErrStateBudget)

	// ErrNotExplorable: NewMachines returned a machine that is not
	// node.Undoable.
	ErrNotExplorable = errors.New("check: machine cannot be explored")
)

// maxDepth bounds the schedule depth of every explored state. Each DFS
// engine recurses once per step, so depth is goroutine stack depth; the
// bound keeps a deep instance (a long single-path election, or a
// divergent fault space) returning ErrDepthBound with its witness instead
// of overflowing the stack. Every engine applies the same bound, so
// reports stay identical at any Workers width.
const maxDepth = 1 << 20

// depthError is the witness-carrying error for a state at depth beyond
// maxDepth.
func depthError(depth int, steps []Step) error {
	return wrapWitness(fmt.Errorf("%w: depth %d exceeds %d", ErrDepthBound, depth, maxDepth), steps)
}

// machine is what the explorer requires of every node: one snapshot
// encoding for undo, fault injection, the memo key and parallel handoff.
type machine interface {
	node.PulseMachine
	node.Undoable
}

// appendStateKey encodes st as a compact binary string into b: each
// machine's snapshot (self-delimiting per the node.Undoable contract),
// fixed-width queue depths, and packed init bits.
func appendStateKey(b []byte, st *state) []byte {
	for _, m := range st.ms {
		b = m.SnapshotTo(b)
	}
	for _, q := range st.queues {
		b = node.AppendKey32(b, q)
	}
	var w byte
	for i, in := range st.inited {
		if in {
			w |= 1 << (i & 7)
		}
		if i&7 == 7 {
			b = append(b, w)
			w = 0
		}
	}
	if len(st.inited)&7 != 0 {
		b = append(b, w)
	}
	if st.fx != nil {
		b = appendFaultKey(b, st.fx, st.sent)
	}
	return b
}

// Exhaustive explores every schedule and returns statistics, or the first
// error found together with its witness schedule.
func Exhaustive(cfg Config) (Report, error) {
	cfg.plan = fault.Plan{}
	rep, err := exhaustive(cfg)
	return rep.Report, err
}

// exhaustive validates the configuration and dispatches to an engine; both
// the faultless and the fault-aware entry points land here.
func exhaustive(cfg Config) (FaultReport, error) {
	if cfg.Topo.N() == 0 {
		return FaultReport{}, errors.New("check: empty topology")
	}
	if cfg.NewMachines == nil {
		return FaultReport{}, errors.New("check: nil NewMachines")
	}
	if cfg.MaxStates < 0 {
		return FaultReport{}, fmt.Errorf("check: negative MaxStates %d", cfg.MaxStates)
	}
	if cfg.MaxStates == 0 {
		// Fault plans can make the state space infinite (e.g. a duplicated
		// pulse under Algorithm 1 circulates forever, one ever-deeper
		// path); the lower fault-mode default stops such a census on its
		// state budget before the depth bound.
		if cfg.plan.Active() {
			cfg.MaxStates = 1 << 20
		} else {
			cfg.MaxStates = 1 << 22
		}
	}
	if cfg.Workers > 1 {
		return runParallel(cfg)
	}
	return runSequential(cfg)
}

// runSequential builds the root state and runs the undo explorer over it.
func runSequential(cfg Config) (FaultReport, error) {
	root, prefix, err := buildRoot(cfg)
	if err != nil {
		return FaultReport{}, err
	}
	memo, err := newMemo(cfg.Memo)
	if err != nil {
		return FaultReport{}, err
	}
	ex := &undoExplorer{cfg: cfg, memo: memo, steps: prefix}
	ex.stepper = stepper{topo: cfg.Topo, n: cfg.Topo.N()}
	ex.reset(root)
	err = ex.dfs(0)
	return ex.rep, err
}

// buildRoot constructs and validates the root state. When ExploreInits is
// false it also applies the implicit upfront init prefix on a throwaway
// stepper, returning the steps taken so every witness stays
// self-contained.
func buildRoot(cfg Config) (*state, []Step, error) {
	n := cfg.Topo.N()
	st, err := newState(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.plan.Active() {
		st.fx = newFaultX(cfg.plan, st.ms)
	}
	var steps []Step
	if !cfg.ExploreInits {
		sp := stepper{topo: cfg.Topo, n: n}
		sp.reset(st)
		for k := 0; k < n; k++ {
			steps = append(steps, Step{Init: k, Chan: -1})
			if _, err := sp.apply(steps[k]); err != nil {
				return nil, nil, wrapWitness(err, steps)
			}
		}
	}
	return st, steps, nil
}

// newState validates fresh machines from cfg.NewMachines and wraps them in
// a state with empty queues, no init bits and no fault plane.
func newState(cfg Config) (*state, error) {
	n := cfg.Topo.N()
	ms, err := cfg.NewMachines()
	if err != nil {
		return nil, err
	}
	if len(ms) != n {
		return nil, fmt.Errorf("check: %d machines for %d nodes", len(ms), n)
	}
	st := &state{
		ms:     make([]machine, n),
		queues: make([]uint32, 2*n),
		inited: make([]bool, n),
	}
	for k, m := range ms {
		c, ok := m.(machine)
		if !ok {
			return nil, fmt.Errorf("%w: machine %d does not implement node.Undoable", ErrNotExplorable, k)
		}
		st.ms[k] = c
	}
	return st, nil
}

// wrapWitness attaches a copy of the schedule so far to an error.
func wrapWitness(err error, steps []Step) error {
	if err == nil {
		return nil
	}
	return &WitnessError{Reason: err, Steps: append([]Step(nil), steps...)}
}

// state is one global configuration: machine states plus per-channel queue
// depths (pulses are indistinguishable, so depths suffice). fx is the
// fault plane of an ExhaustiveFaults run; nil otherwise.
type state struct {
	ms     []machine
	queues []uint32 // channel id = 2*node + port
	inited []bool
	sent   uint64
	fx     *faultX
}

// collector implements node.Emitter against the state's queues. Every
// incremented channel id is recorded on log so the stepper can revert the
// sends of one handler invocation, and every send's weight is added to
// the stepper's component sum.
type collector struct {
	topo ring.Topology
	st   *state
	from int
	err  error
	log  *[]int32
	sum  *uint64
}

func (c *collector) Send(p pulse.Port, _ pulse.Pulse) {
	if !p.Valid() {
		c.err = c.st.violation("node %d sent on invalid port %d", c.from, p)
		return
	}
	to := c.topo.Peer(c.from, p)
	if st := c.st.ms[to.Node].Status(); st.Terminated {
		c.err = c.st.violation("node %d sent toward terminated node %d", c.from, to.Node)
		return
	}
	ch := 2*to.Node + int(to.Port)
	c.st.queues[ch]++
	c.st.sent++
	w := chanWeight(ch)
	if fx := c.st.fx; fx != nil {
		w += sentWeight
		if fx.windowed {
			w += fx.tick(fx.sendCnt, windowSends, ch)
		}
	}
	*c.sum += w
	*c.log = append(*c.log, int32(ch))
}

func (st *state) afterHandler(k int) error {
	s := st.ms[k].Status()
	if s.Err != nil {
		return st.violation("node %d: %v", k, s.Err)
	}
	if s.Terminated && st.queues[2*k]+st.queues[2*k+1] > 0 {
		return st.violation("node %d terminated with queued pulses", k)
	}
	return nil
}

// violation is the error of a protocol violation, described by format
// and args. On a faulted path it is the bare ErrViolation: the explorer
// counts and prunes the edge there without reading the text
// (stepFailed), so nothing is formatted.
func (st *state) violation(format string, args ...any) error {
	if st.fx.faulted() {
		return ErrViolation
	}
	return fmt.Errorf("%w: %s", ErrViolation, fmt.Sprintf(format, args...))
}

// add folds another explorer's report into rep: every counter sums, and
// MaxDepth is the larger of the two.
func (rep *FaultReport) add(o FaultReport) {
	rep.StatesVisited += o.StatesVisited
	rep.TerminalStates += o.TerminalStates
	rep.MaxDepth = max(rep.MaxDepth, o.MaxDepth)
	rep.InjectionEdges += o.InjectionEdges
	rep.ViolationEdges += o.ViolationEdges
	rep.CleanTerminals += o.CleanTerminals
	rep.DegradedTerminals += o.DegradedTerminals
	rep.StalledTerminals += o.StalledTerminals
}

// countTerminal records the classification of one faulted terminal state.
func (rep *FaultReport) countTerminal(out int) {
	switch out {
	case terminalClean:
		rep.CleanTerminals++
	case terminalDegraded:
		rep.DegradedTerminals++
	case terminalStalled:
		rep.StalledTerminals++
	}
}
