package check

import (
	"errors"
	"sync"
	"sync/atomic"
)

// The parallel explorer shares subtrees across workers. Each worker is an
// undoExplorer over machines of its own and runs the same dfs as the
// sequential engine; whenever the shared queue runs low, it hands a
// successor off as a subtree-root task — the state's machine snapshots,
// queue depths, init bits, sent counter and fault plane — instead of
// recursing into it, and reverts the step either way. A worker starts a
// task by restoring its machines from the task's snapshots. The visited
// set is the sharded memo table.
//
// Determinism contract. On success the Report is exact, not approximate:
// every path from the root to a state S has the same length (each step
// either sets one init bit or moves one pulse, and S fixes its init bits,
// queue depths, and sent counter), so StatesVisited, TerminalStates, and
// MaxDepth are functions of the reachable-state closure — which is the
// same set regardless of exploration order. Each state is expanded by
// exactly one worker (the shared memo admits it once), so summing the
// workers' reports, and taking the largest MaxDepth, yields the sequential
// report. On ANY failure (violation, stall, state or depth budget, audit
// collision) the counters and the failing schedule DO depend on order, so
// runParallel discards the partial run and reruns the sequential undo
// engine, which yields the canonical first witness and the same Report the
// sequential explorer would produce. Errors are the rare, terminal case;
// the common (passing) case keeps full speedup.

// parTask is a subtree root: a privately owned copy of one state plus its
// depth. Machine k's snapshot is snaps[offs[k]:offs[k+1]].
type parTask struct {
	snaps  []byte
	offs   []int32
	queues []uint32
	inited []bool
	sent   uint64
	fx     *faultX
	depth  int
}

// task copies st into a subtree-root task at the given depth.
func (st *state) task(depth int) parTask {
	t := parTask{
		offs:   make([]int32, 1, len(st.ms)+1),
		queues: append([]uint32(nil), st.queues...),
		inited: append([]bool(nil), st.inited...),
		sent:   st.sent,
		fx:     st.fx.clone(),
		depth:  depth,
	}
	for _, m := range st.ms {
		t.snaps = m.SnapshotTo(t.snaps)
		t.offs = append(t.offs, int32(len(t.snaps)))
	}
	return t
}

// load makes st the task's state: its machines restore from the task's
// snapshots, and st takes over the task's fault plane.
func (st *state) load(t parTask) {
	for k, m := range st.ms {
		m.Restore(t.snaps[t.offs[k]:t.offs[k+1]])
	}
	copy(st.queues, t.queues)
	copy(st.inited, t.inited)
	st.sent = t.sent
	st.fx = t.fx
}

// errAbandoned unwinds a worker once another worker has failed.
var errAbandoned = errors.New("check: exploration abandoned")

type parExplorer struct {
	workers int

	// states counts the distinct states every worker visited: the state
	// budget is checked on it, so a divergent exploration stops near
	// MaxStates in total at any width.
	states atomic.Int64
	failed atomic.Bool

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
	p := &parExplorer{workers: cfg.Workers}
	p.cond = sync.NewCond(&p.mu)
	exs := make([]*undoExplorer, cfg.Workers)
	for i := range exs {
		st, err := newState(cfg)
		if err != nil {
			return FaultReport{}, err
		}
		exs[i] = &undoExplorer{cfg: cfg, memo: memo, pool: p}
		exs[i].stepper = stepper{topo: cfg.Topo, n: cfg.Topo.N(), st: st}
	}
	p.push(root.task(0))

	var wg sync.WaitGroup
	for _, ex := range exs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(ex)
		}()
	}
	wg.Wait()

	if p.failed.Load() {
		return runSequential(cfg)
	}
	var rep FaultReport
	for _, ex := range exs {
		rep.add(ex.rep)
	}
	return rep, nil
}

// work runs tasks on one worker's explorer until the pool is done.
func (p *parExplorer) work(ex *undoExplorer) {
	for {
		t, ok := p.pop()
		if !ok {
			return
		}
		ex.st.load(t)
		ex.reset(ex.st)
		ex.steps = ex.steps[:0]
		if err := ex.dfs(t.depth); err != nil {
			p.fail()
			return
		}
		p.taskDone()
	}
}

// peel hands the current state, at the given depth, to the pool as a task
// when the shared queue is low enough that branches should be shared
// rather than recursed in place, and reports whether it did.
func (ex *undoExplorer) peel(depth int) bool {
	p := ex.pool
	if int(p.queueLen.Load()) >= 2*p.workers {
		return false
	}
	p.push(ex.st.task(depth))
	return true
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
