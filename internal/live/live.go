// Package live executes pulse machines on a runtime made of real
// concurrency: one goroutine per ring node, each draining its own inbox.
// The Go scheduler supplies the asynchrony — message delays become
// goroutine scheduling delays, unbounded but finite, exactly the adversary
// of Section 2 — so this runtime complements the deterministic simulator
// (internal/sim) with genuinely nondeterministic executions.
//
// Content-obliviousness is physical here: a pulse carries no content, so
// a FIFO of pulses is exactly its length, and each incoming channel is an
// atomic counter of queued pulses. There is no content to consult even by
// accident. A node that reads k pulses queued on a port takes them as one
// run and pays its bookkeeping (the count decrement, the delivery tally,
// the stop check, the wake-ups it owes) once per run. A node.BatchMachine
// takes the run through OnPulses, which consumes whole uniform stretches
// of it in one transition and emits each stretch's relays as one counted
// SendRun (under WithChaos every run is one pulse long); other machines
// get one OnMsg per pulse. Theorem 1 fixes the total, so how the pulses
// group into runs and transitions cannot change the outcome. With a
// fault plane, a stretch is cut to the trigger room of the node's handler
// counter and of the channel's delivery counter (fault.Plane.Room) and
// skipped past them in one step; the pulse at a trigger takes the
// per-pulse path, so every injection fires at the ordinal a
// pulse-by-pulse run would give it.
//
// Wake protocol. A send adds to the receiver's counter and never blocks.
// A node that finds nothing deliverable sets its parked flag, re-reads
// both counters and the stop flag, and only then blocks on its wake
// channel; a sender that reads the flag set after its add owes the
// receiver a token. Go's atomics are sequentially consistent, so of the
// node's (write parked, read counts) and the sender's (write count, read
// parked) at least one sees the other's write: either the node sees the
// pulse and does not block, or the sender sees the flag and owes it a
// token. The sender records the debt and posts the token once its run is
// over, after its Init, and before it parks, exits or is handed to the
// supervisor: the post is late but never lost, since a node posts every
// token it owes before it could itself block or stop. A stale token only
// causes a spurious wake. Shutdown sets a stopping flag and then posts a
// token to every inbox; nodes check the flag once per run and after every
// wake.
//
// Quiescence detection uses a single conservation counter: it counts
// every pulse queued, every pulse inside a handler, and every unit of
// credit a node holds. A handled pulse's unit becomes credit on the
// node's emitter, and a send spends a unit of credit before it touches
// the counter, so a node relaying pulses moves units between credit and
// queues without a shared atomic. The node settles its credit with one
// subtraction before it parks, is handed to the supervisor, terminates or
// exits, so a parked node holds none. Pulses are created only inside
// handlers, and a running handler keeps its own input pulse counted, so
// once the counter reaches zero with all nodes initialized it can never
// rise again: zero is a stable, race-free quiescence witness. Detection is
// event-driven — whichever goroutine performs the subtraction that reaches
// (0 in flight, 0 uninitialized) signals the supervisor directly, so there
// is no poll loop and no detection latency to tune.
//
// A watchdog supervises the whole run: if the deadline passes without
// quiescence, Run returns a structured StallReport naming the stalled
// nodes, their queue occupancy, and the in-flight count, instead of a bare
// timeout.
//
// WithFaultPlane steps deliberately outside the model: sends are dropped
// or duplicated, deliveries inject spurious pulses, and nodes crash,
// restart, or corrupt on the plane's seeded schedule. Fault accounting
// preserves the conservation argument — drops are decided before the
// counter increment, injections are counted before their pulse is queued,
// and a restart's sends happen inside the handler window — so zero remains
// a stable witness even on faulted runs.
//
// WithSupervisor closes the loop a crash opens. Without it a crashed node
// is gone for good: its goroutine exits, its queued pulses strand, and the
// run ends in a StallReport. With it, the dying goroutine hands its node to
// a supervisor goroutine, which restores the machine (per RestorePolicy),
// re-spawns the consume loop on the same inbox (whose counters kept
// accepting sends), and thereby re-enters the quiescence protocol: the
// revived node's queued pulses are still in the conservation ledger, so
// zero — and hence quiescence — becomes reachable again. Under
// RestoreCheckpoint the machine resumes from its exact crash-time state,
// so a healed run sends exactly as many pulses as a clean one; under
// RestoreInit the node comes back amnesiac (init snapshot plus a fresh
// Init), modeling a fail-stop restart that the quiescently stabilizing
// algorithms must absorb.
package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// ErrTimeout is returned when the network fails to quiesce within the
// configured deadline. The returned error is a *StallError carrying the
// full StallReport; errors.Is(err, ErrTimeout) matches it.
var ErrTimeout = errors.New("live: timed out waiting for quiescence")

// Result summarizes a finished live run.
type Result struct {
	N                int
	Sent             uint64
	Delivered        uint64
	SentCW           uint64
	SentCCW          uint64
	Quiescent        bool
	AllTerminated    bool
	Leader           int // unique leader index, or -1
	Leaders          []int
	Statuses         []node.Status
	TerminationOrder []int
	// Heals lists, in supervision order, the node index of every crash
	// the supervisor healed; a node that crashed twice appears twice.
	Heals []int
	// Notes is the structured run log: unhealable crashes and similar
	// diagnoses that are not errors.
	Notes []RunNote
}

// RunNote is one structured run-log entry.
type RunNote struct {
	// Code is a stable machine-matchable tag ("unhealable-crash").
	Code string
	// Detail is the human-readable elaboration.
	Detail string
}

// StallReport is the watchdog's structured diagnosis of a run that failed
// to quiesce: the conservation counter's residue plus, per implicated
// node, its queue occupancy, crash flag, and machine status.
type StallReport struct {
	// InFlight is the conservation counter at the deadline: pulses sent
	// (or injected) but never fully processed.
	InFlight int64
	// Unstarted counts nodes whose Init had not completed.
	Unstarted int
	// Nodes lists every node with a non-empty queue or a crash, in
	// ascending node order.
	Nodes []NodeStall
}

// NodeStall describes one stalled node.
type NodeStall struct {
	Node int
	// Queued holds the undelivered pulse count per port.
	Queued [2]int
	// Crashed reports a fault-plane crash (the node stopped consuming).
	Crashed bool
	// Status is the machine's final status.
	Status node.Status
}

// nodeStallJSON is the wire shape of NodeStall: node.Status is inlined
// with its Err flattened to a message string, since error values do not
// survive encoding/json.
type nodeStallJSON struct {
	Node           int        `json:"node"`
	Queued         [2]int     `json:"queued"`
	Crashed        bool       `json:"crashed,omitempty"`
	State          node.State `json:"state"`
	Terminated     bool       `json:"terminated,omitempty"`
	HasOrientation bool       `json:"hasOrientation,omitempty"`
	CWPort         pulse.Port `json:"cwPort,omitempty"`
	Err            string     `json:"err,omitempty"`
}

// MarshalJSON implements json.Marshaler; see nodeStallJSON.
func (ns NodeStall) MarshalJSON() ([]byte, error) {
	w := nodeStallJSON{
		Node:           ns.Node,
		Queued:         ns.Queued,
		Crashed:        ns.Crashed,
		State:          ns.Status.State,
		Terminated:     ns.Status.Terminated,
		HasOrientation: ns.Status.HasOrientation,
		CWPort:         ns.Status.CWPort,
	}
	if ns.Status.Err != nil {
		w.Err = ns.Status.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. A non-empty err string comes
// back as an opaque error with that message, so a decoded report
// re-encodes to the same bytes.
func (ns *NodeStall) UnmarshalJSON(data []byte) error {
	var w nodeStallJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*ns = NodeStall{
		Node:    w.Node,
		Queued:  w.Queued,
		Crashed: w.Crashed,
		Status: node.Status{
			State:       w.State,
			Terminated:  w.Terminated,
			Orientation: node.Orientation{HasOrientation: w.HasOrientation, CWPort: w.CWPort},
		},
	}
	if w.Err != "" {
		ns.Status.Err = errors.New(w.Err)
	}
	return nil
}

// StallError is the timeout error: it wraps ErrTimeout and carries the
// StallReport.
type StallError struct {
	Report StallReport
}

// Error renders the report on one line.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %d pulses unaccounted", ErrTimeout, e.Report.InFlight)
	if e.Report.Unstarted > 0 {
		fmt.Fprintf(&b, ", %d nodes uninitialized", e.Report.Unstarted)
	}
	for _, ns := range e.Report.Nodes {
		fmt.Fprintf(&b, "; stalled node %d", ns.Node)
		if ns.Crashed {
			b.WriteString(" (crashed)")
		}
		if ns.Queued[0] > 0 || ns.Queued[1] > 0 {
			fmt.Fprintf(&b, " queued=[%d %d]", ns.Queued[0], ns.Queued[1])
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrTimeout) hold.
func (e *StallError) Unwrap() error { return ErrTimeout }

type config struct {
	timeout   time.Duration
	chaos     uint64 // 0 = off; otherwise a jitter seed
	plane     *fault.Plane
	supervise bool
	policy    RestorePolicy
}

// Option configures Run.
type Option func(*config)

// WithTimeout bounds the whole run (default 10s); Run rejects d <= 0.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// RestorePolicy selects what state a supervised node is revived with.
type RestorePolicy uint8

const (
	// RestoreCheckpoint (the default) resumes the machine from its exact
	// crash-time state: the crash killed the goroutine, not the state, so
	// the healed run is pulse-for-pulse identical to a crash-free one.
	RestoreCheckpoint RestorePolicy = iota
	// RestoreInit revives the node amnesiac: the machine is restored to
	// its pre-Init snapshot and re-initialized (its wake-up sends are
	// counted normally). This models a fail-stop restart with state loss
	// and requires the machine to be node.Undoable; a crash of a
	// non-restorable machine is recorded as an "unhealable-crash" note
	// and left dead.
	RestoreInit
)

// WithSupervisor enables crash healing: when a fault-plane crash kills a
// node's goroutine, a supervisor revives the node under the given policy
// and the ring re-enters the quiescence protocol. Without a fault plane
// the option is inert.
func WithSupervisor(p RestorePolicy) Option {
	return func(c *config) { c.supervise = true; c.policy = p }
}

// WithChaos makes every node inject pseudo-random scheduling jitter
// (bursts of runtime.Gosched and occasional microsecond sleeps) before
// each delivery, and pick pseudo-randomly between its ports when both
// have pulses waiting, seeded per node from seed; every delivery is a run
// of one pulse. This widens the set of
// interleavings the Go scheduler realizes — a cheap approximation of the
// adversarial delays the model allows, on real concurrency.
func WithChaos(seed int64) Option { return func(c *config) { c.chaos = uint64(seed) | 1 } }

// WithFaultPlane attaches a fault plane: sends consult it for loss and
// duplication, and the receiving node's goroutine for spurious injection
// on each delivery it takes and for crash/restart/corruption after each
// handler. A batched run skips each counter past the events that cannot
// reach a trigger (fault.Plane.Room and Skip), so every injection fires at
// its ordinal. The plane's trigger counters are per-entity and each entity
// is driven by exactly one goroutine here (a channel's sender for its
// sends, its receiving node for its deliveries), matching the plane's
// lock-free ownership contract. Faulted runs routinely end in a
// *StallError — a crashed node strands its queue — which is then the
// expected outcome, not a failure of the runtime.
func WithFaultPlane(p *fault.Plane) Option { return func(c *config) { c.plane = p } }

// Run executes the machines until quiescence (or until every node
// terminates) and returns the outcome. A node.BatchMachine whose OnPulses
// consumes none or more than it was offered ends the run with an error.
// Machines must not be reused across runs.
func Run(topo ring.Topology, machines []node.PulseMachine, opts ...Option) (Result, error) {
	if len(machines) != topo.N() {
		return Result{}, fmt.Errorf("live: %d machines for %d nodes", len(machines), topo.N())
	}
	cfg := config{timeout: 10 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeout <= 0 {
		return Result{}, fmt.Errorf("live: timeout %v is not positive", cfg.timeout)
	}
	n := topo.N()
	if cfg.plane != nil && cfg.plane.Config().Nodes != n {
		return Result{}, fmt.Errorf("live: fault plane sized for %d nodes on a %d-node ring",
			cfg.plane.Config().Nodes, n)
	}

	r := &netRuntime{
		topo:      topo,
		machines:  machines,
		stop:      make(chan struct{}),
		quiesce:   make(chan struct{}, 1),
		inboxes:   make([]inbox, n),
		emitters:  make([]emitter, n),
		plane:     cfg.plane,
		supervise: cfg.supervise && cfg.plane != nil,
		policy:    cfg.policy,
		crashCh:   make(chan int),
	}
	r.initsLeft.Store(int64(n))
	if r.plane != nil {
		r.crashed = make([]bool, n)
		r.initSnaps = make([][]byte, n)
		for k, m := range machines {
			if u, ok := m.(node.Undoable); ok {
				r.initSnaps[k] = u.SnapshotTo(nil)
			}
		}
	}

	for k := range r.inboxes {
		r.emitters[k] = emitter{r: r, from: k}
		in := &r.inboxes[k]
		in.wake = make(chan struct{}, 1)
		if cfg.chaos != 0 {
			in.jitter = cfg.chaos*0x9e3779b97f4a7c15 + uint64(k)
		}
	}

	r.wg.Add(n)
	for k := 0; k < n; k++ {
		go r.nodeLoop(k)
	}
	if r.supervise {
		r.wg.Add(1)
		go r.superviseLoop()
	}

	// Watchdog: wait for the quiescence signal, then release the node
	// goroutines; at the deadline, diagnose instead.
	deadline := time.NewTimer(cfg.timeout)
	defer deadline.Stop()

	var timedOut bool
monitor:
	for {
		select {
		case <-r.quiesce:
			// The signal is sent by the goroutine that observed
			// (0 in flight, 0 uninitialized), or by fail, the only
			// early setter of stopping; re-check defensively.
			if r.stopping.Load() || r.initsLeft.Load() == 0 && r.inflight.Load() == 0 {
				break monitor
			}
		case <-deadline.C:
			timedOut = true
			break monitor
		}
	}
	r.stopping.Store(true)
	for k := range r.inboxes {
		r.inboxes[k].post()
	}
	close(r.stop)
	r.wg.Wait()

	res := r.collect()
	if r.err != nil {
		return res, r.err
	}
	if timedOut {
		return res, &StallError{Report: r.stallReport()}
	}
	return res, nil
}

type netRuntime struct {
	topo      ring.Topology
	machines  []node.PulseMachine
	inboxes   []inbox   // by receiving node
	emitters  []emitter // by sending node; owned like machines[k]
	stopping  atomic.Bool
	stop      chan struct{} // closed after stopping is set; unblocks the supervisor handoff
	quiesce   chan struct{} // buffered(1): edge signal that zero was reached
	wg        sync.WaitGroup
	inflight  atomic.Int64
	initsLeft atomic.Int64

	mu        sync.Mutex
	err       error // the first broken machine contract (see fail)
	termOrder []int
	heals     []int
	notes     []RunNote

	// Fault plane state (nil/absent on model-exact runs). crashed[k],
	// initSnaps[k], and machines[k] are owned by whichever goroutine is
	// currently driving node k; ownership starts at the node's goroutine
	// and transfers through the crashCh handoff (channel send), then to
	// the revived goroutine (goroutine start), so every write is ordered
	// and the post-wg.Wait reads in collect/stallReport see the final
	// values without extra synchronization.
	plane     *fault.Plane
	crashed   []bool
	initSnaps [][]byte

	// Supervision (off unless WithSupervisor and a fault plane are both
	// present). crashCh carries the index of a crashed node from its
	// dying goroutine to the supervisor.
	supervise bool
	policy    RestorePolicy
	crashCh   chan int
}

// noteQuiet signals the watchdog if inflight, a value of the conservation
// counter just read or returned by a subtraction, is zero with every node
// initialized. Zero is stable once reached (no pulse is queued, no handler
// is running and no credit is held, so nothing can send), making the edge
// signal sufficient.
func (r *netRuntime) noteQuiet(inflight int64) {
	if inflight == 0 && r.initsLeft.Load() == 0 {
		select {
		case r.quiesce <- struct{}{}:
		default:
		}
	}
}

// fail ends the run with err, a machine's broken contract that leaves
// the conservation ledger unable to settle: the first error wins and Run
// returns it once every goroutine has exited.
func (r *netRuntime) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.stopping.Store(true)
	select {
	case r.quiesce <- struct{}{}:
	default:
	}
}

// inbox is node k's receiving end of its two incoming channels. A pulse
// carries no content, so a FIFO of pulses is exactly its length: q[p]
// counts the pulses queued on port p. A sender adds to the count and then
// owes a token on wake only if it reads parked set; the node sets parked
// and re-reads both counts before it blocks on wake (see the package
// doc), so a send landing after the node last looked is never missed.
// Only the node decrements its counts, once per run of deliveries.
type inbox struct {
	q      [2]atomic.Int64
	parked atomic.Bool   // the node is about to block, or blocked, on wake
	wake   chan struct{} // buffered(1): a count may have risen, or the run is stopping

	// Owned by the goroutine driving the node, like the machine.
	jitter uint64 // 0 = no chaos; otherwise the node's xorshift state
	flip   bool   // which port goes first when both are deliverable
}

// post leaves a wake token without blocking; a waiting token already
// covers this one.
func (in *inbox) post() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// pick returns the port node k takes its next run of deliveries from and
// the count it read there, or a zero count when neither port is
// deliverable. A port is deliverable when the machine polls it and its
// count is positive; an unpolled port keeps its count, which realizes the
// model's "the node does not poll this queue". When both are deliverable
// successive runs alternate between the ports, or under chaos the node's
// jitter draw chooses and the run is one pulse long, so the jitter and
// the draw come before every delivery.
func (in *inbox) pick(m node.PulseMachine) (pulse.Port, int64) {
	c := in.deliverable(m)
	if c[0] == 0 && c[1] == 0 {
		return 0, 0
	}
	p := pulse.Port0
	switch x := in.shake(); {
	case c[0] == 0:
		p = pulse.Port1
	case c[1] == 0:
	case in.jitter != 0:
		p = pulse.Port(x >> 4 & 1)
	default:
		in.flip = !in.flip
		if !in.flip {
			p = pulse.Port1
		}
	}
	if in.jitter != 0 {
		return p, 1
	}
	return p, c[p]
}

// deliverable reads the count of each port the machine polls, and zero
// for a port it does not.
func (in *inbox) deliverable(m node.PulseMachine) (c [2]int64) {
	if m.Ready(pulse.Port0) {
		c[0] = in.q[0].Load()
	}
	if m.Ready(pulse.Port1) {
		c[1] = in.q[1].Load()
	}
	return c
}

// park blocks node k until a count may have risen or the run is stopping.
// The re-check after setting parked closes the race with a sender that
// added to a count before the flag was visible.
func (r *netRuntime) park(in *inbox, m node.PulseMachine) {
	in.parked.Store(true)
	if c := in.deliverable(m); c[0] == 0 && c[1] == 0 && !r.stopping.Load() {
		<-in.wake
	}
	in.parked.Store(false)
}

// shake advances the chaos state and injects the pseudo-random scheduling
// jitter it draws before a delivery; it returns the draw (0 without
// chaos).
func (in *inbox) shake() uint64 {
	if in.jitter == 0 {
		return 0
	}
	// xorshift64 step.
	x := in.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	in.jitter = x
	switch x % 16 {
	case 0:
		time.Sleep(time.Duration(x%5) * time.Microsecond)
	case 1, 2, 3:
		for i := uint64(0); i < x%8; i++ {
			runtime.Gosched()
		}
	}
	return x
}

// emitter is node k's sending end and pulse accounting: it routes the
// node's sends into the receivers' inboxes, holds the node's credit and
// the wake-ups it owes, and tallies the pulses the node put on the wire
// per direction (sends, duplicates and spurious injections) and the
// deliveries it took. Like the machine it is touched only by the
// goroutine driving the node, so the fields are plain; credit and owed
// wake-ups are zero at every handoff, so each incarnation starts clean,
// and collect reads the tallies after wg.Wait. At 64 bytes each node's
// emitter fills one cache line.
type emitter struct {
	r                          *netRuntime
	from                       int
	credit                     int64 // in-flight units of handled pulses not yet settled
	sentCW, sentCCW, delivered uint64
	// owed[p] is the inbox of the peer on port p if a send found it
	// parked since the last post, else nil.
	owed [2]*inbox
}

// enter accounts copies pulses travelling in direction dir about to be
// queued: each is counted in flight, by spending held credit or by adding
// to the counter, before the caller queues it.
func (e *emitter) enter(dir pulse.Direction, copies int64) {
	if e.credit >= copies {
		e.credit -= copies
	} else {
		e.r.inflight.Add(copies - e.credit)
		e.credit = 0
	}
	if dir == pulse.CW {
		e.sentCW += uint64(copies)
	} else {
		e.sentCCW += uint64(copies)
	}
}

// post wakes the peers the node owes a token: called once per run of
// deliveries, after Init, and (through settle) on every way to a park, a
// handoff or an exit.
func (e *emitter) post() {
	for p, in := range e.owed {
		if in != nil {
			in.post()
			e.owed[p] = nil
		}
	}
}

// settle posts the owed wake-ups and returns the held credit to the
// conservation counter with one subtraction, whose result drives
// quiescence detection.
func (e *emitter) settle() {
	e.post()
	if e.credit == 0 {
		return
	}
	left := e.r.inflight.Add(-e.credit)
	e.credit = 0
	e.r.noteQuiet(left)
}

// Send implements node.Emitter and never blocks. With a fault plane, loss
// is decided before the pulse is counted (a dropped pulse never enters the
// conservation ledger) and duplication queues two counted pulses. A send
// on a port other than Port0 and Port1 ends the run with an error.
func (e *emitter) Send(p pulse.Port, _ pulse.Pulse) {
	if !p.Valid() {
		e.invalidPort(p)
		return
	}
	to := e.r.topo.Peer(e.from, p)
	copies := int64(1)
	if e.r.plane != nil {
		switch e.r.plane.OnSend(0, 2*to.Node+int(to.Port)) {
		case fault.Loss:
			return
		case fault.Dup:
			copies = 2
		}
	}
	e.queue(p, to, copies)
}

// SendRun implements node.BatchEmitter. A run that fits the trigger room
// of the receiving channel's send counter is skipped past it and queued
// as one counted add; a run that does not fit goes pulse by pulse through
// Send, so each loss or duplication lands on its exact send ordinal.
func (e *emitter) SendRun(p pulse.Port, n uint64) {
	if !p.Valid() {
		e.invalidPort(p)
		return
	}
	if n == 0 {
		return
	}
	to := e.r.topo.Peer(e.from, p)
	if pl := e.r.plane; pl != nil {
		c := 2*to.Node + int(to.Port)
		if pl.Room(fault.Sends, c) < n {
			for ; n > 0; n-- {
				e.Send(p, pulse.Pulse{})
			}
			return
		}
		pl.Skip(fault.Sends, c, n)
	}
	e.queue(p, to, int64(n))
}

// invalidPort ends the run: the node sent on port p, which it does not
// have. Nothing is queued or counted, so the run stops at the fault.
func (e *emitter) invalidPort(p pulse.Port) {
	e.r.fail(fmt.Errorf("live: node %d sent on invalid port %d", e.from, p))
}

// queue puts copies pulses sent out of port p on the peer's count. They
// are counted in flight before they are queued, and queued before the
// receiver's parked flag is read; a parked receiver is owed a token.
func (e *emitter) queue(p pulse.Port, to ring.Endpoint, copies int64) {
	e.enter(e.r.topo.DirectionOf(e.from, p), copies)
	in := &e.r.inboxes[to.Node]
	in.q[to.Port].Add(copies)
	if in.parked.Load() {
		e.owed[p] = in
	}
}

// applyNodeFault consults the plane after node k's handler invocation and
// applies the outcome. It returns false when the node crashed (the caller
// must stop consuming); restart and corruption keep the node running.
func (r *netRuntime) applyNodeFault(k int, m node.PulseMachine, em node.PulseEmitter) bool {
	if r.plane == nil {
		return true
	}
	switch r.plane.OnHandler(0, k) {
	case fault.Crash:
		r.crashed[k] = true
		return false
	case fault.Restart:
		u, ok := m.(node.Undoable)
		if !ok {
			r.plane.SkipLast(k)
			break
		}
		u.Restore(r.initSnaps[k])
		m.Init(em) // the restart's wake-up; its sends are counted normally
	case fault.Corrupt:
		u, ok := m.(node.Undoable)
		if !ok {
			r.plane.SkipLast(k)
			break
		}
		u.Restore(r.plane.Perturb(k, u.SnapshotTo(nil)))
	}
	return true
}

func (r *netRuntime) nodeLoop(k int) {
	defer r.wg.Done()
	m := r.machines[k]
	em := &r.emitters[k]

	m.Init(em)
	alive := r.applyNodeFault(k, m, em)
	em.post()
	r.initsLeft.Add(-1)
	r.noteQuiet(r.inflight.Load())
	if !alive {
		r.offerHeal(k)
		return
	}
	r.consume(k, m, em)
}

// consume runs node k's delivery loop until termination, shutdown, or a
// fault-plane crash (which it hands to the supervisor when one exists).
// The only blocking operation is the wait for a wake token when nothing is
// deliverable; handlers and their sends never block. The node's held
// credit and owed wake-ups are settled on every way out of the loop and
// before every park.
func (r *netRuntime) consume(k int, m node.PulseMachine, em *emitter) {
	in := &r.inboxes[k]
	bm, _ := m.(node.BatchMachine)
	for !r.stopping.Load() {
		if st := m.Status(); st.Terminated || st.Err != nil {
			em.settle()
			if st.Terminated {
				r.mu.Lock()
				r.termOrder = append(r.termOrder, k)
				r.mu.Unlock()
			}
			return
		}
		p, c := in.pick(m)
		if c == 0 {
			em.settle()
			r.park(in, m)
			continue
		}
		if !r.drain(k, m, bm, em, p, c) {
			em.settle()
			r.offerHeal(k)
			return
		}
	}
	em.settle()
}

// drain delivers up to c pulses queued on node k's port p as one run. A
// batch machine (bm non-nil) takes the run through OnPulses, each call cut
// to the trigger room of the node's handler counter and of the channel's
// delivery counter, which it then skips; a pulse at a trigger, and every
// pulse of a machine without OnPulses, gets its own plane consults and
// OnMsg. The run ends early when the machine stops polling p, terminates
// or errs, or the plane crashes the node, in which case drain returns
// false; an OnPulses that consumes none or more than it was offered ends
// the whole run with an error (fail). Each handled pulse's in-flight unit becomes credit on em, and
// the count, the delivery tally and the owed wake-ups are settled once
// for the whole run.
func (r *netRuntime) drain(k int, m node.PulseMachine, bm node.BatchMachine, em *emitter, p pulse.Port, c int64) bool {
	in := &r.inboxes[k]
	ch := 2*k + int(p)
	alive := true
	var done int64
	for done < c {
		if run := r.batchRun(bm, k, ch, c-done); run > 0 {
			got := bm.OnPulses(p, run, em)
			if got == 0 || got > run {
				r.fail(fmt.Errorf("live: OnPulses at node %d consumed %d of %d offered pulses", k, got, run))
				break
			}
			if r.plane != nil {
				r.plane.Skip(fault.Deliveries, ch, got)
				r.plane.Skip(fault.Handlers, k, got)
			}
			done += int64(got)
			em.credit += int64(got) // the handlers are over: the units are held
		} else {
			// An injected pulse is counted in flight before it is queued,
			// keeping zero a stable quiescence witness.
			if r.plane != nil && r.plane.OnDeliver(0, ch) == fault.Spurious {
				em.enter(r.topo.ArrivalDirection(k, p), 1)
				in.q[p].Add(1)
			}
			m.OnMsg(p, pulse.Pulse{}, em)
			alive = r.applyNodeFault(k, m, em)
			done++
			em.credit++ // the handler is over: the pulse's unit is held, not in a handler
		}
		if !alive || !m.Ready(p) {
			break
		}
		if st := m.Status(); st.Terminated || st.Err != nil {
			break
		}
	}
	in.q[p].Add(-done)
	em.delivered += uint64(done)
	em.post()
	return alive
}

// batchRun returns how many of the left pulses queued on channel ch node
// k hands to the next OnPulses call, or 0 when the next pulse takes the
// per-pulse path: the machine has no OnPulses, or the pulse is at a
// trigger of the node's handler counter or the channel's delivery counter.
func (r *netRuntime) batchRun(bm node.BatchMachine, k, ch int, left int64) uint64 {
	if bm == nil {
		return 0
	}
	run := uint64(left)
	if r.plane != nil {
		run = min(run, r.plane.Room(fault.Handlers, k), r.plane.Room(fault.Deliveries, ch))
	}
	return run
}

// offerHeal hands a crashed node to the supervisor. The WaitGroup slot for
// the node's next incarnation is reserved BEFORE the handoff, so wg.Wait
// cannot pass between the old goroutine's exit and the revival; a shutdown
// racing the handoff releases the reservation instead.
func (r *netRuntime) offerHeal(k int) {
	if !r.supervise {
		return
	}
	r.wg.Add(1)
	select {
	case r.crashCh <- k:
	case <-r.stop:
		r.wg.Done()
	}
}

// superviseLoop heals crashes until shutdown.
func (r *netRuntime) superviseLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case k := <-r.crashCh:
			r.heal(k)
		}
	}
}

// heal revives crashed node k per the restore policy and re-spawns its
// consume loop on the same inbox (whose counts kept accepting sends, so
// the node's queued pulses — still counted in flight — are waiting for it).
// The revived node re-enters the quiescence protocol immediately: once it
// drains its queue the conservation counter can reach zero again. Owns
// the inherited WaitGroup slot and either passes it to the new goroutine
// or releases it on an unhealable crash.
func (r *netRuntime) heal(k int) {
	m := r.machines[k]
	em := &r.emitters[k]
	if r.policy == RestoreInit {
		u, ok := m.(node.Undoable)
		if !ok || r.initSnaps[k] == nil {
			r.note("unhealable-crash", fmt.Sprintf("node %d is not restorable; left dead", k))
			r.wg.Done()
			return
		}
		u.Restore(r.initSnaps[k])
	}
	r.crashed[k] = false
	r.mu.Lock()
	r.heals = append(r.heals, k)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		if r.policy == RestoreInit {
			// The revival's wake-up; its sends are counted normally, so the
			// conservation ledger absorbs the amnesiac restart like any
			// other init. The plane may crash the node again right here.
			m.Init(em)
			alive := r.applyNodeFault(k, m, em)
			em.post()
			if !alive {
				r.offerHeal(k)
				return
			}
		}
		r.consume(k, m, em)
	}()
}

// note appends a structured run-log entry.
func (r *netRuntime) note(code, detail string) {
	r.mu.Lock()
	r.notes = append(r.notes, RunNote{Code: code, Detail: detail})
	r.mu.Unlock()
}

func (r *netRuntime) collect() Result {
	n := r.topo.N()
	res := Result{
		N:         n,
		Quiescent: r.inflight.Load() == 0 && r.initsLeft.Load() == 0,
		Leader:    -1,
		Statuses:  make([]node.Status, n),
	}
	for k := range r.emitters {
		e := &r.emitters[k]
		res.SentCW += e.sentCW
		res.SentCCW += e.sentCCW
		res.Delivered += e.delivered
	}
	res.Sent = res.SentCW + res.SentCCW
	res.AllTerminated = true
	for k := 0; k < n; k++ {
		st := r.machines[k].Status()
		res.Statuses[k] = st
		if st.State == node.StateLeader {
			res.Leaders = append(res.Leaders, k)
		}
		if !st.Terminated {
			res.AllTerminated = false
		}
	}
	if len(res.Leaders) == 1 {
		res.Leader = res.Leaders[0]
	}
	r.mu.Lock()
	res.TerminationOrder = append(res.TerminationOrder, r.termOrder...)
	res.Heals = append(res.Heals, r.heals...)
	res.Notes = append(res.Notes, r.notes...)
	r.mu.Unlock()
	return res
}

// stallReport assembles the watchdog diagnosis. Called after wg.Wait, so
// machine and crash state reads are ordered after all goroutine writes,
// and every node has settled its credit: InFlight is exactly the pulses
// still queued (plus any Init that never finished).
func (r *netRuntime) stallReport() StallReport {
	rep := StallReport{
		InFlight:  r.inflight.Load(),
		Unstarted: int(r.initsLeft.Load()),
	}
	for k := 0; k < r.topo.N(); k++ {
		q0 := int(r.inboxes[k].q[0].Load())
		q1 := int(r.inboxes[k].q[1].Load())
		crashed := r.crashed != nil && r.crashed[k]
		if q0 == 0 && q1 == 0 && !crashed {
			continue
		}
		rep.Nodes = append(rep.Nodes, NodeStall{
			Node:    k,
			Queued:  [2]int{q0, q1},
			Crashed: crashed,
			Status:  r.machines[k].Status(),
		})
	}
	return rep
}
