package check

import (
	"errors"
	"sync"
	"sync/atomic"
)

// The parallel explorer shares subtrees across workers: a worker running
// depth-first over its own mutable state (a stepper) applies each branch
// in place and, whenever the shared queue runs low, hands the successor
// off as a deep-copied subtree-root task instead of recursing into it;
// either way it reverts the step afterwards. The visited set is the
// sharded memo table.
//
// Determinism contract. On success the Report is exact, not approximate:
// every path from the root to a state S has the same length (each step
// either sets one init bit or moves one pulse, and S fixes its init bits,
// queue depths, and sent counter), so StatesVisited, TerminalStates, and
// MaxDepth are functions of the reachable-state closure — which is the
// same set regardless of exploration order. On ANY failure (violation,
// stall, state or depth budget, audit collision) the counters and the
// failing schedule DO depend on order, so runParallel discards the
// partial run and reruns
// the sequential undo engine, which yields the canonical first witness
// and the same Report the sequential explorer would produce. Errors are
// the rare, terminal case; the common (passing) case keeps full speedup.

// parTask is a subtree root: a privately owned state plus its depth.
type parTask struct {
	st    *state
	depth int
}

type parExplorer struct {
	cfg  Config
	memo *shardedMemo

	states    atomic.Int64
	terminals atomic.Int64
	maxDepth  atomic.Int64
	failed    atomic.Bool

	// Fault-mode outcome counters; always zero in faultless runs. Like the
	// base counters they are exact: each state is expanded exactly once
	// (the memo folds the fault plane into the key), and every counter is
	// a function of the expanded state.
	injEdges  atomic.Int64
	violEdges atomic.Int64
	cleanT    atomic.Int64
	degradedT atomic.Int64
	stalledT  atomic.Int64

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []parTask // LIFO: deep tasks first keeps the frontier small
	outstanding int       // queued + in-flight tasks
	done        bool
	queueLen    atomic.Int32 // mirror of len(queue) for the lock-free spawn check
}

// runParallel explores with cfg.Workers goroutines. See the determinism
// contract above for why it may fall back to runSequential.
func runParallel(cfg Config) (FaultReport, error) {
	root, _, err := buildRoot(cfg)
	if err != nil {
		return FaultReport{}, err
	}
	memo, err := newShardedMemo(cfg.Memo)
	if err != nil {
		return FaultReport{}, err
	}
	p := &parExplorer{cfg: cfg, memo: memo}
	p.cond = sync.NewCond(&p.mu)
	p.push(parTask{st: root, depth: 0})

	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()

	if p.failed.Load() {
		return runSequential(cfg)
	}
	return FaultReport{
		Report: Report{
			StatesVisited:  int(p.states.Load()),
			TerminalStates: int(p.terminals.Load()),
			MaxDepth:       int(p.maxDepth.Load()),
		},
		InjectionEdges:    int(p.injEdges.Load()),
		ViolationEdges:    int(p.violEdges.Load()),
		CleanTerminals:    int(p.cleanT.Load()),
		DegradedTerminals: int(p.degradedT.Load()),
		StalledTerminals:  int(p.stalledT.Load()),
	}, nil
}

func (p *parExplorer) work() {
	sp := &stepper{topo: p.cfg.Topo, n: p.cfg.Topo.N()}
	for {
		t, ok := p.pop()
		if !ok {
			return
		}
		sp.reset(t.st)
		p.dfs(sp, t.depth)
		p.taskDone()
	}
}

// dfs is the worker-local exploration of one subtree. Bookkeeping mirrors
// undoExplorer.dfs with atomics; witnesses are not tracked (the sequential
// rerun reconstructs them).
func (p *parExplorer) dfs(sp *stepper, depth int) {
	if p.failed.Load() {
		return
	}
	added, err := p.memo.insert(sp.fingerprint(), sp.memoKey(p.cfg.Memo))
	if err != nil {
		p.fail()
		return
	}
	if !added {
		return
	}
	if p.states.Add(1) > int64(p.cfg.MaxStates) || depth > maxDepth {
		p.fail()
		return
	}
	for {
		d := p.maxDepth.Load()
		if int64(depth) <= d || p.maxDepth.CompareAndSwap(d, int64(depth)) {
			break
		}
	}

	base, end := sp.pushChoices()
	if base == end {
		p.terminals.Add(1)
		out, verr := sp.terminalOutcome(p.cfg.Check)
		if sp.st.fx.faulted() {
			switch out {
			case terminalClean:
				p.cleanT.Add(1)
			case terminalDegraded:
				p.degradedT.Add(1)
			case terminalStalled:
				p.stalledT.Add(1)
			}
		} else if verr != nil {
			p.fail()
			return
		}
	}
	fend := end
	if fx := sp.st.fx; fx != nil && len(fx.log) < fx.plan.Budget {
		fend = sp.pushFaultChoices()
	}
	for i := base; i < fend; i++ {
		step := sp.stepAt(i)
		if step.Fault != 0 {
			p.injEdges.Add(1)
		}
		fr, err := sp.apply(step)
		if err != nil {
			if errors.Is(err, ErrViolation) && sp.st.fx.faulted() {
				p.violEdges.Add(1)
				sp.revert(fr)
				continue
			}
			p.fail()
			return
		}
		if p.starving() {
			// Peel this branch off as a shareable task instead of
			// recursing into it.
			p.push(parTask{st: sp.st.clone(), depth: depth + 1})
		} else {
			p.dfs(sp, depth+1)
			if p.failed.Load() {
				return // state and arenas are stale; the run is abandoned
			}
		}
		sp.revert(fr)
	}
	sp.popChoices(base)
}

// starving reports whether the shared queue is low enough that branches
// should be shared rather than recursed in place.
func (p *parExplorer) starving() bool {
	return int(p.queueLen.Load()) < 2*p.cfg.Workers
}

func (p *parExplorer) push(t parTask) {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, t)
	p.outstanding++
	p.queueLen.Store(int32(len(p.queue)))
	p.cond.Signal()
	p.mu.Unlock()
}

func (p *parExplorer) pop() (parTask, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.done {
			return parTask{}, false
		}
		if n := len(p.queue); n > 0 {
			t := p.queue[n-1]
			p.queue[n-1] = parTask{}
			p.queue = p.queue[:n-1]
			p.queueLen.Store(int32(n - 1))
			return t, true
		}
		p.cond.Wait()
	}
}

// taskDone retires one task; when none are queued or in flight the
// exploration is complete and all workers are released.
func (p *parExplorer) taskDone() {
	p.mu.Lock()
	p.outstanding--
	if p.outstanding == 0 {
		p.done = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// fail records a failure and releases all workers; the caller falls back
// to the sequential engine for the canonical verdict.
func (p *parExplorer) fail() {
	p.failed.Store(true)
	p.mu.Lock()
	p.done = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
