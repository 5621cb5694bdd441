// Package sim is a deterministic discrete-event simulator for asynchronous
// ring networks. It is the reference runtime for every algorithm in this
// repository: the content-oblivious algorithms of internal/core run on
// Sim[pulse.Pulse], the content-carrying baselines of internal/baseline on
// Sim[baseline.Msg].
//
// Asynchrony is modeled exactly as in Section 2 of the paper: channels never
// drop, duplicate, or inject messages; delays are unbounded but finite.
// (WithFaultPlane deliberately steps outside that model for robustness
// experiments; without it the model holds exactly.) Any
// asynchronous execution is fully determined by the order in which queued
// messages are delivered, so the adversary is a Scheduler that repeatedly
// picks the next channel to deliver from. Per-channel FIFO order is always
// preserved (for contentless pulses this is unobservable; for the baselines
// it matters).
//
// The simulator enforces the model's correctness obligations as it runs:
// a message sent toward a terminated node, or a node terminating with a
// non-empty incoming queue, violates quiescent termination and aborts the
// run with an error; a reachable state with queued messages but no
// deliverable one is a permanent stall and likewise aborts.
package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// Sentinel errors reported by Run and the stepping API.
var (
	// ErrStalled: messages are queued but no machine is ready to consume
	// any of them; since nodes are event-driven the network can never make
	// progress again.
	ErrStalled = errors.New("sim: stalled with undeliverable messages in flight")

	// ErrStepLimit: the delivery budget was exhausted before quiescence.
	ErrStepLimit = errors.New("sim: step limit exceeded")

	// ErrPostTerminationSend: a handler sent a message toward a node that
	// had already terminated, violating quiescent termination.
	ErrPostTerminationSend = errors.New("sim: message sent to terminated node")

	// ErrTerminatedNonEmpty: a node terminated while messages addressed to
	// it were still queued or in flight, violating quiescent termination.
	ErrTerminatedNonEmpty = errors.New("sim: node terminated with pending incoming messages")

	// ErrMachineFault: a machine reported a protocol fault via Status().Err.
	ErrMachineFault = errors.New("sim: machine fault")

	// ErrFaultPlaneUndoable: WithFaultPlane was combined with a machine
	// bank that cannot satisfy it. Restart and corrupt injections
	// snapshot and restore per-node state through node.Undoable, which
	// only pointer machines implement; a FlatMachine bank exposes no
	// per-node snapshot/restore surface, so NewFlat rejects the
	// combination with this error (see DESIGN.md §9).
	ErrFaultPlaneUndoable = errors.New("sim: fault plane requires node.Undoable pointer machines")

	// ErrBatchUnsupported: WithBatching was combined with a machine bank
	// or option it cannot drive: every machine must implement
	// node.BatchMachine (flat banks: node.FlatBatchMachine), and the
	// batch fast path is model-exact, so the fault plane is rejected.
	ErrBatchUnsupported = errors.New("sim: batching unsupported for this configuration")
)

// EventKind distinguishes the two things that can happen in an event-driven
// network: a node waking up for the first time, and a message delivery.
type EventKind uint8

// Event kinds.
const (
	EvInit EventKind = iota + 1
	EvDeliver
)

// SendRec records one message emission for observers. On the batched
// fast path (WithBatching) a record may describe a counted run: Count
// holds the run length, and 0 — the value every non-batched path leaves
// — means a single message.
type SendRec struct {
	From  int
	Port  pulse.Port
	Dir   pulse.Direction
	To    ring.Endpoint
	Count uint64 `json:",omitempty"` // run length; 0 means 1
}

// Event describes one simulator step for observers. Payloads are not
// included; observers needing algorithm state introspect machines directly.
// On the batched fast path one event describes a whole batch transition:
// Count holds how many pulses it consumed (0 — the value every
// non-batched path leaves — means 1), Step is the step of the FIRST
// pulse of the run (the transition spans steps Step..Step+Count-1 of
// the equivalent pulse-by-pulse execution), and Sends carries counted
// runs.
type Event struct {
	Kind  EventKind
	Step  uint64
	Node  int
	Port  pulse.Port      // delivery port (EvDeliver only)
	Dir   pulse.Direction // arrival direction (EvDeliver only)
	Count uint64          `json:",omitempty"` // pulses consumed; 0 means 1
	Sends []SendRec       // emissions of this handler invocation
}

// Result summarizes a finished (or aborted) run.
type Result struct {
	N                int
	Steps            uint64 // handler invocations (inits + deliveries)
	Sent             uint64 // total messages sent
	Delivered        uint64 // total messages delivered
	SentCW           uint64 // messages sent clockwise
	SentCCW          uint64 // messages sent counterclockwise
	Quiescent        bool   // no messages left anywhere
	AllTerminated    bool
	Leader           int   // index of the unique leader, or -1
	Leaders          []int // all nodes currently reporting Leader
	Statuses         []node.Status
	TerminationOrder []int // node indices in the order they terminated
}

// Sim is a single-use simulation of one ring execution. Create with New,
// then either call Run, or drive manually with InitNode/Deliver for
// fine-grained schedule control.
type Sim[M any] struct {
	topo ring.Topology
	// The machine bank: exactly one of machines (one heap object per
	// node) and flat (a struct-of-arrays FlatMachine bank, see NewFlat)
	// is non-nil; every handler, Ready, and Status access goes through
	// the m* dispatch helpers.
	machines []node.Machine[M]
	flat     node.FlatMachine[M]
	sched    Scheduler
	obs      []Observer[M]

	// queues holds one list header per channel (channel id = node*2 +
	// port); every queued entry lives in pool.
	queues  []fifo[M]
	pool    pool[M]
	flags   []uint8 // per node: nodeInit, nodeTerm, nodeCrash bits
	ordTerm []int

	chanDir []pulse.Direction // arrival direction on each channel
	outDir  []pulse.Direction // travel direction of sends out of (node, port)
	peerCh  []int32           // channel id receiving sends out of (node, port)

	// deliv is the incrementally maintained deliverable set: bit c is set
	// iff channel c holds a queued message whose receiver is initialized,
	// unterminated, and Ready. It is updated at every point deliverability
	// can change — enqueue, dequeue, init, termination, and Ready
	// transitions (a machine's Ready only changes inside its own handlers,
	// so refreshing the acting node's two channels after each handler
	// covers every transition). rescan disables it in favor of the
	// retained full-scan reference.
	deliv      bitset
	delivCount int
	rescan     bool

	// aux holds the scheduler-requested lazy heaps (see HeapHinted), one
	// per head-keyed hint, and heavy the HeapHeaviest heap, nil unless
	// hinted: Canonical, Newest, DirBiased, HashDelay and Heaviest get
	// their picks in O(log n) instead of an O(n) scan. Both are empty in
	// rescan mode, which keeps the rescan reference a heap-free oracle.
	aux   []auxHeap
	heavy *heavyHeap

	// weights is WeightedView's Fenwick tree (Random's pick): nil until
	// a scheduler first asks for it, and always nil in rescan mode.
	weights *fenwick

	step      uint64
	seq       uint64
	sent      uint64
	delivered uint64
	// sentDir counts sends by direction, indexed by dirSlot: an array
	// index instead of a CW/CCW branch, which a random non-oriented ring
	// makes a coin flip.
	sentDir [2]uint64

	scratch []int // reusable deliverable buffer
	em      emitter[M]
	failed  error

	// Batch fast path (WithBatching; pulse machines only). Exactly one
	// of bms and fbm is non-nil when batch is set; runEm is the reusable
	// counted-run emitter handed to OnPulses; runs/coalesced feed the
	// RunsCoalesced accessor.
	batch     bool
	bms       []node.BatchMachine
	fbm       node.FlatBatchMachine
	runEm     runEmitter
	runs      uint64 // batch transitions (OnPulses invocations)
	coalesced uint64 // batch transitions that consumed more than one pulse

	// Fault plane (nil on model-exact runs). Crashed nodes (nodeCrash)
	// consume nothing; initSnap holds pre-Init Undoable snapshots for
	// restarts.
	plane    *fault.Plane
	initSnap [][]byte
}

// Node flags, one byte per node in Sim.flags. A node is live — its
// channels may be deliverable — exactly when its flags equal nodeInit:
// initialized, not terminated, not crashed. A restart clears only
// nodeTerm, so a crashed node stays crashed.
const (
	nodeInit  uint8 = 1 << iota // Init has run
	nodeTerm                    // reported Terminated and not restarted since
	nodeCrash                   // fail-stopped by the fault plane
)

// entry is one queued element of a channel FIFO. On non-batched paths
// every entry is a single message (cnt == 1). The batched fast path
// (WithBatching) stores counted pulse runs instead: an entry with
// cnt == c represents c contentless pulses occupying the contiguous
// sequence numbers seq .. seq+c-1 — sound because a content-oblivious
// channel's state IS its pulse count, and exact because run emissions
// are per-channel contiguous in the expanded execution (see the
// BatchMachine contract). msg comes first so that a zero-size payload
// (pulse.Pulse) adds no trailing padding.
type entry[M any] struct {
	msg M
	seq uint64
	cnt uint64
}

// fifo is one channel's queue: a singly linked list of pool slots from
// head to tail, n entries long. tot is the queued message count (Σ cnt
// over entries): equal to n on non-batched paths, and the
// scheduler-visible queue length everywhere. An empty queue's head is
// slot 0, the pool's zero sentinel; tail is meaningful only while
// n > 0.
type fifo[M any] struct {
	head, tail, n int32
	tot           uint64
}

// pooled is one pool slot: a queued entry and the slot index of the
// next entry in its queue (0 at the tail), or, while the slot is free,
// of the next free slot.
type pooled[M any] struct {
	entry[M]
	next int32
}

// pool is the one entry store behind every channel queue of a Sim.
// Slot 0 is a permanently zero sentinel and the list terminator, so
// front() of an empty queue reads seq 0 and cnt 0. Freed slots form a
// LIFO free list: a pop's slot is the next push's, still in cache. The
// pool grows by append, so a *entry from front() is invalid after any
// push; callers read it at once. Until the first push the pool is the
// sentinel alone; that push reserves one slot per node (reserve), the
// peak an n-node batched election holds, so the pool does not double
// its way up on large rings. Slot indices are int32: more than 2^31
// queued entries would take over 48 GB of pool first.
type pool[M any] struct {
	slots   []pooled[M]
	free    int32 // head of the free list; 0 = none
	reserve int32 // slots the first push reserves past the sentinel
}

// alloc stores e in a free slot, or in a new one, and returns its index.
func (p *pool[M]) alloc(e entry[M]) int32 {
	if i := p.free; i != 0 {
		p.free = p.slots[i].next
		p.slots[i] = pooled[M]{entry: e}
		return i
	}
	if len(p.slots) == 1 {
		// Not slices.Grow: under -race its append(s, make(n)...) also
		// allocates the temporary, so the pool would cost twice.
		p.slots = append(make([]pooled[M], 0, 1+p.reserve), p.slots[0])
	}
	p.slots = append(p.slots, pooled[M]{entry: e})
	return int32(len(p.slots) - 1)
}

// release zeroes slot i, dropping any payload reference, and frees it.
func (p *pool[M]) release(i int32) {
	p.slots[i] = pooled[M]{next: p.free}
	p.free = i
}

func (p *pool[M]) push(q *fifo[M], e entry[M]) {
	i := p.alloc(e)
	if q.n == 0 {
		q.head = i
	} else {
		p.slots[q.tail].next = i
	}
	q.tail = i
	q.n++
	q.tot += e.cnt
}

// pushRun appends a counted pulse run, coalescing it into the tail
// entry when the sequence ranges are contiguous. Only the batched fast
// path calls this (messages are contentless pulses, so merging entries
// never conflates payloads).
func (p *pool[M]) pushRun(q *fifo[M], e entry[M]) {
	if q.n > 0 {
		tail := &p.slots[q.tail]
		if tail.seq+tail.cnt == e.seq {
			tail.cnt += e.cnt
			q.tot += e.cnt
			return
		}
	}
	p.push(q, e)
}

func (p *pool[M]) pop(q *fifo[M]) entry[M] {
	i := q.head
	e := p.slots[i].entry
	q.head = p.slots[i].next
	p.release(i)
	q.n--
	q.tot -= e.cnt
	return e
}

// popPulses consumes m pulses from the front of the queue, splitting a
// partially consumed run in place (its remainder keeps ascending,
// contiguous numbering, so the front's seq stays the oldest queued
// pulse's). m must be at most tot.
func (p *pool[M]) popPulses(q *fifo[M], m uint64) {
	q.tot -= m
	for m > 0 {
		i := q.head
		f := &p.slots[i]
		if f.cnt > m {
			f.seq += m
			f.cnt -= m
			return
		}
		m -= f.cnt
		q.head = f.next
		p.release(i)
		q.n--
	}
}

// front is q's oldest entry, or the zero sentinel when q is empty. The
// pointer is invalid after the next push onto any queue.
func (p *pool[M]) front(q *fifo[M]) *entry[M] { return &p.slots[q.head].entry }

// bitset indexes channels; word i holds channels 64i..64i+63.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) appendInto(dst []int) []int {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Observer receives every simulator event; returning an error aborts the
// run. Observers run after the event's sends have been enqueued and all
// built-in violation checks have passed.
type Observer[M any] interface {
	OnEvent(e *Event, s *Sim[M]) error
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc[M any] func(e *Event, s *Sim[M]) error

// OnEvent implements Observer.
func (f ObserverFunc[M]) OnEvent(e *Event, s *Sim[M]) error { return f(e, s) }

// Option configures a Sim.
type Option[M any] func(*Sim[M])

// WithObserver attaches an observer; multiple observers run in order.
func WithObserver[M any](o Observer[M]) Option[M] {
	return func(s *Sim[M]) { s.obs = append(s.obs, o) }
}

// WithRescanDeliverable makes Deliverable recompute the deliverable set
// with a full scan over every channel on every call, instead of reading
// the incrementally maintained set. It is the retained naive reference
// implementation: the two must agree exactly (same channels, same
// ascending order), which the scheduler-trace differential tests assert
// for every stock scheduler.
func WithRescanDeliverable[M any]() Option[M] {
	return func(s *Sim[M]) { s.rescan = true }
}

// newSim builds the machine-free core of a simulation: queues, wiring
// caches, and the incremental deliverable machinery. New and NewFlat
// attach their machine banks and apply options on top.
func newSim[M any](t ring.Topology, sched Scheduler) (*Sim[M], error) {
	if sched == nil {
		return nil, errors.New("sim: nil scheduler")
	}
	n := t.N()
	s := &Sim[M]{
		topo:    t,
		sched:   sched,
		queues:  make([]fifo[M], 2*n),
		pool:    pool[M]{slots: make([]pooled[M], 1), reserve: int32(n)},
		flags:   make([]uint8, n),
		chanDir: make([]pulse.Direction, 2*n),
		outDir:  make([]pulse.Direction, 2*n),
		peerCh:  make([]int32, 2*n),
		deliv:   make(bitset, (2*n+63)/64),
	}
	for k := 0; k < n; k++ {
		for _, p := range []pulse.Port{pulse.Port0, pulse.Port1} {
			// Channel into (k, p) carries messages traveling opposite to
			// the direction k would send out of p. The outgoing wiring is
			// cached here once so flushSends never consults the topology
			// on the per-send path.
			c := chanID(k, p)
			s.chanDir[c] = t.ArrivalDirection(k, p)
			s.outDir[c] = t.DirectionOf(k, p)
			to := t.Peer(k, p)
			s.peerCh[c] = int32(chanID(to.Node, to.Port))
		}
	}
	s.em.s = s
	return s, nil
}

// finish applies options and wires the scheduler's aux heaps; the bank
// must already be attached (options and hints may consult it).
func (s *Sim[M]) finish(opts []Option[M]) error {
	for _, o := range opts {
		o(s)
	}
	return s.installHeapHints()
}

// New builds a simulation of machines on topology t driven by sched.
// len(machines) must equal t.N().
func New[M any](t ring.Topology, machines []node.Machine[M], sched Scheduler, opts ...Option[M]) (*Sim[M], error) {
	if len(machines) != t.N() {
		return nil, fmt.Errorf("sim: %d machines for %d nodes", len(machines), t.N())
	}
	s, err := newSim[M](t, sched)
	if err != nil {
		return nil, err
	}
	s.machines = machines
	if err := s.finish(opts); err != nil {
		return nil, err
	}
	if err := s.setupBatch(); err != nil {
		return nil, err
	}
	if s.plane != nil {
		s.captureInitialSnapshots()
	}
	return s, nil
}

// NewFlat builds a simulation whose node state lives in a FlatMachine
// bank (struct-of-arrays) instead of one heap object per node: the
// layout for very large rings. Semantics are identical to New — the
// flat differential tests assert trace-for-trace equality against the
// pointer machines — except that WithFaultPlane is rejected: restart
// and corrupt injections snapshot machines through node.Undoable, which
// a flat bank does not expose.
func NewFlat[M any](t ring.Topology, bank node.FlatMachine[M], sched Scheduler, opts ...Option[M]) (*Sim[M], error) {
	if bank == nil {
		return nil, errors.New("sim: nil machine bank")
	}
	if bank.Len() != t.N() {
		return nil, fmt.Errorf("sim: bank of %d slots for %d nodes", bank.Len(), t.N())
	}
	s, err := newSim[M](t, sched)
	if err != nil {
		return nil, err
	}
	s.flat = bank
	if err := s.finish(opts); err != nil {
		return nil, err
	}
	if err := s.setupBatch(); err != nil {
		return nil, err
	}
	if s.plane != nil {
		return nil, fmt.Errorf("%w: FlatMachine banks expose no per-node snapshot/restore surface for restart and corrupt injections", ErrFaultPlaneUndoable)
	}
	return s, nil
}

// mInit dispatches a node's Init through whichever bank is attached.
func (s *Sim[M]) mInit(k int, e node.Emitter[M]) {
	if s.flat != nil {
		s.flat.Init(k, e)
		return
	}
	s.machines[k].Init(e)
}

// mOnMsg dispatches a delivery through whichever bank is attached.
func (s *Sim[M]) mOnMsg(k int, p pulse.Port, m M, e node.Emitter[M]) {
	if s.flat != nil {
		s.flat.OnMsg(k, p, m, e)
		return
	}
	s.machines[k].OnMsg(p, m, e)
}

// mReady dispatches a Ready query through whichever bank is attached.
func (s *Sim[M]) mReady(k int, p pulse.Port) bool {
	if s.flat != nil {
		return s.flat.Ready(k, p)
	}
	return s.machines[k].Ready(p)
}

// mStatus dispatches a Status query through whichever bank is attached.
func (s *Sim[M]) mStatus(k int) node.Status {
	if s.flat != nil {
		return s.flat.Status(k)
	}
	return s.machines[k].Status()
}

func chanID(k int, p pulse.Port) int { return 2*k + int(p) }

// ChanNode returns the receiving node of channel c.
func ChanNode(c int) int { return c / 2 }

// ChanPort returns the receiving port of channel c.
func ChanPort(c int) pulse.Port { return pulse.Port(c % 2) }

// chanEndpoint is the receiving endpoint of channel c.
func chanEndpoint(c int) ring.Endpoint { return ring.Endpoint{Node: ChanNode(c), Port: ChanPort(c)} }

// dirSlot is direction d's index in Sim.sentDir: CW is 1, CCW is 0.
func dirSlot(d pulse.Direction) int { return int(d & 1) }

// emitter buffers a handler's sends so they take effect atomically, with
// clockwise sends enqueued first. That ordering realizes the canonical
// scheduler's tie-break of Definition 21 ("prioritizing CW pulses" among
// pulses emitted at the same instant) and is harmless for every other
// scheduler. A send on a port other than Port0 and Port1 is a machine
// fault: the emitter records the first one in err, and the flush returns
// it before any of the handler's sends takes effect.
type emitter[M any] struct {
	s    *Sim[M]
	from int
	buf  []pendingSend[M]
	err  error
}

type pendingSend[M any] struct {
	port pulse.Port
	msg  M
}

// invalidPort is the machine fault of node k sending on port p.
func invalidPort(k int, p pulse.Port) error {
	return fmt.Errorf("%w: node %d sent on invalid port %d", ErrMachineFault, k, p)
}

// Send implements node.Emitter.
func (e *emitter[M]) Send(p pulse.Port, m M) {
	if !p.Valid() {
		if e.err == nil {
			e.err = invalidPort(e.from, p)
		}
		return
	}
	e.buf = append(e.buf, pendingSend[M]{port: p, msg: m})
}

// flushSends puts the handler's buffered sends on the wire, clockwise
// first (stable within each direction). One send, the common case (every
// relay), needs no ordering and goes out directly.
func (s *Sim[M]) flushSends(from int, ev *Event) error {
	buf := s.em.buf
	s.em.buf = buf[:0]
	if err := s.em.err; err != nil {
		s.em.err = nil
		return err
	}
	if len(buf) == 1 {
		return s.send(from, buf[0].port, buf[0].msg, ev)
	}
	for _, want := range [2]pulse.Direction{pulse.CW, pulse.CCW} {
		for _, ps := range buf {
			if s.outDir[chanID(from, ps.port)] != want {
				continue
			}
			if err := s.send(from, ps.port, ps.msg, ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// send puts one message node from emitted on port p on the wire: it fails
// toward a terminated node, consults the fault plane, and enqueues.
func (s *Sim[M]) send(from int, p pulse.Port, msg M, ev *Event) error {
	out := chanID(from, p)
	dir, c := s.outDir[out], int(s.peerCh[out])
	if s.flags[ChanNode(c)]&nodeTerm != 0 {
		return fmt.Errorf("%w: node %d sent %s toward node %d",
			ErrPostTerminationSend, from, dir, ChanNode(c))
	}
	if s.plane != nil {
		switch s.plane.OnSend(s.step, c) {
		case fault.Loss:
			return nil // vanished in transit; never reaches the queue
		case fault.Dup:
			s.enqueue(c, msg, dir)
		}
	}
	s.enqueue(c, msg, dir)
	if ev != nil {
		ev.Sends = append(ev.Sends, SendRec{From: from, Port: p, Dir: dir, To: chanEndpoint(c)})
	}
	return nil
}

// enqueue places one message on channel c traveling dir, assigning the next
// global sequence number and maintaining the counters and the deliverable
// set. It is the single point where messages enter the wire: handler
// emissions, duplicated pulses, and spurious injections all land here, so
// Sent and InFlight count adversarial traffic too.
func (s *Sim[M]) enqueue(c int, msg M, dir pulse.Direction) {
	s.seq++
	q := &s.queues[c]
	s.pool.push(q, entry[M]{seq: s.seq, cnt: 1, msg: msg})
	s.sent++
	s.sentDir[dirSlot(dir)]++
	if q.n == 1 {
		// Empty -> non-empty is the only enqueue transition that can
		// change deliverability.
		s.refreshChan(c)
		return
	}
	if s.deliv.get(c) {
		// The head is unchanged, so only the count-keyed HeapHeaviest
		// heap re-registers. An undeliverable channel weighs 0 before
		// and after the push.
		if s.heavy != nil {
			s.heavyPush(c, s.pool.front(q).seq)
		}
		s.reweigh(c, int64(q.tot))
	}
}

// refreshChan recomputes channel c's bit in the deliverable set and, when
// deliverable, registers its current head in the aux heaps; either way
// it re-weighs c in the WeightedView tree.
func (s *Sim[M]) refreshChan(c int) {
	k := ChanNode(c)
	q := &s.queues[c]
	was := s.deliv.get(c)
	var w int64 // c's weight: its pulse count while deliverable
	if q.n > 0 && s.flags[k] == nodeInit && s.mReady(k, ChanPort(c)) {
		if !was {
			s.deliv.set(c)
			s.delivCount++
		}
		seq := s.pool.front(q).seq
		if len(s.aux) > 0 {
			s.auxPush(c, seq)
		}
		if s.heavy != nil {
			s.heavyPush(c, seq)
		}
		w = int64(q.tot)
	} else if was {
		s.deliv.clear(c)
		s.delivCount--
	}
	s.reweigh(c, w)
}

// afterHandler performs the built-in checks, brings the deliverable set
// up to date with node k's post-handler state, and notifies observers.
// ev is nil exactly when no observer is attached.
func (s *Sim[M]) afterHandler(k int, ev *Event) error {
	st := s.mStatus(k)
	if st.Err != nil {
		return fmt.Errorf("%w: node %d: %v", ErrMachineFault, k, st.Err)
	}
	if st.Terminated && s.flags[k]&nodeTerm == 0 {
		s.flags[k] |= nodeTerm
		if s.ordTerm == nil {
			// One termination per node is the common bound (a restart
			// can add more), so the order is allocated once.
			s.ordTerm = make([]int, 0, len(s.flags))
		}
		s.ordTerm = append(s.ordTerm, k)
		if s.queues[chanID(k, pulse.Port0)].n != 0 || s.queues[chanID(k, pulse.Port1)].n != 0 {
			return fmt.Errorf("%w: node %d", ErrTerminatedNonEmpty, k)
		}
	}
	// A machine's Ready answers only change inside its own handlers, so
	// re-evaluating the acting node's two channels (the queue pop and the
	// enqueues were refreshed at their own sites) restores the invariant
	// before observers — which may call Deliverable — run.
	s.refreshChan(chanID(k, pulse.Port0))
	s.refreshChan(chanID(k, pulse.Port1))
	if ev != nil {
		for _, o := range s.obs {
			if err := o.OnEvent(ev, s); err != nil {
				return fmt.Errorf("sim: observer: %w", err)
			}
		}
	}
	return nil
}

// InitNode wakes node k (its Machine.Init runs and may send). Idempotence
// is an error: each node inits exactly once.
func (s *Sim[M]) InitNode(k int) error {
	if s.failed != nil {
		return s.failed
	}
	if k < 0 || k >= s.topo.N() {
		return fmt.Errorf("sim: init of node %d outside [0,%d)", k, s.topo.N())
	}
	if s.flags[k]&nodeInit != 0 {
		return fmt.Errorf("sim: node %d already initialized", k)
	}
	s.flags[k] |= nodeInit
	s.step++
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvInit, Step: s.step, Node: k}
	}
	s.em.from = k
	s.mInit(k, &s.em)
	if err := s.flushSends(k, ev); err != nil {
		return s.fail(err)
	}
	if err := s.afterHandler(k, ev); err != nil {
		return s.fail(err)
	}
	if s.plane != nil {
		if err := s.applyNodeFault(k); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

func (s *Sim[M]) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// deliverableRescan appends the ids of channels with a queued message
// whose receiving machine is initialized, unterminated, and Ready, by
// scanning every channel. It is the naive O(n) reference the incremental
// set is verified against.
func (s *Sim[M]) deliverableRescan(dst []int) []int {
	for c := range s.queues {
		if s.queues[c].n == 0 {
			continue
		}
		k := ChanNode(c)
		if s.flags[k] != nodeInit {
			continue
		}
		if !s.mReady(k, ChanPort(c)) {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// Deliverable returns the ids of channels the scheduler may deliver from
// right now, in ascending channel-id order. The returned slice is valid
// until the next simulator step.
func (s *Sim[M]) Deliverable() []int {
	if s.rescan {
		s.scratch = s.deliverableRescan(s.scratch[:0])
	} else {
		s.scratch = s.deliv.appendInto(s.scratch[:0])
	}
	return s.scratch
}

// Deliver pops the head message of channel c and runs the receiver's
// handler. c must currently be deliverable.
func (s *Sim[M]) Deliver(c int) error {
	if s.failed != nil {
		return s.failed
	}
	if s.batch {
		// Queues hold counted runs, not single messages; the batch
		// delivery loop (RunDeliveries) is the only admissible driver.
		return errors.New("sim: Deliver is pulse-by-pulse; drive batched simulations with Run or RunDeliveries")
	}
	if err := s.checkChoice(c); err != nil {
		return err
	}
	return s.deliver(c)
}

// checkChoice returns nil when channel c is deliverable, and otherwise
// the error for delivering it: an empty or invalid channel, or a
// receiver that is uninitialized, terminated (a sticky error), crashed
// or not Ready on c's port. It is the full check behind Deliver and
// behind any RunDeliveries choice outside the deliverable set.
func (s *Sim[M]) checkChoice(c int) error {
	if c < 0 || c >= len(s.queues) || s.queues[c].n == 0 {
		return fmt.Errorf("sim: deliver on empty or invalid channel %d", c)
	}
	k, p := ChanNode(c), ChanPort(c)
	switch {
	case s.flags[k]&nodeInit == 0:
		return fmt.Errorf("sim: deliver to uninitialized node %d", k)
	case s.flags[k]&nodeTerm != 0:
		return s.fail(fmt.Errorf("%w: delivery attempted to node %d", ErrPostTerminationSend, k))
	case s.flags[k]&nodeCrash != 0:
		return fmt.Errorf("sim: deliver to crashed node %d", k)
	case !s.mReady(k, p):
		return fmt.Errorf("sim: deliver on non-ready port %s of node %d", p, k)
	}
	return nil
}

// deliver is Deliver once channel c is known deliverable: it pops the
// head and runs the receiver's handler. RunDeliveries calls it directly
// when the scheduler's choice passes the deliverable-set test, which
// implies every check Deliver makes.
func (s *Sim[M]) deliver(c int) error {
	k, p := ChanNode(c), ChanPort(c)
	head := s.pool.pop(&s.queues[c])
	s.delivered++
	s.step++
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvDeliver, Step: s.step, Node: k, Port: p, Dir: s.chanDir[c]}
	}
	s.em.from = k
	s.mOnMsg(k, p, head.msg, &s.em)
	if err := s.flushSends(k, ev); err != nil {
		return s.fail(err)
	}
	if err := s.afterHandler(k, ev); err != nil {
		return s.fail(err)
	}
	if s.plane != nil {
		if err := s.applyFaults(c, k); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// InFlight returns the number of queued (sent but undelivered) messages.
func (s *Sim[M]) InFlight() uint64 { return s.sent - s.delivered }

// Quiescent reports that every node has initialized and no message is
// queued anywhere: by event-drivenness, no further state change can occur.
func (s *Sim[M]) Quiescent() bool {
	for _, f := range s.flags {
		if f&nodeInit == 0 {
			return false
		}
	}
	return s.InFlight() == 0
}

// Machine returns node k's machine for introspection by observers/tests.
// On a flat-backed simulation it returns a node.Slot adapter over the
// bank, so introspection code works unchanged (type assertions against
// concrete pointer machines do not — assert node.Slot and go through
// the bank instead).
func (s *Sim[M]) Machine(k int) node.Machine[M] {
	if s.flat != nil {
		return node.Slot[M]{Bank: s.flat, K: k}
	}
	return s.machines[k]
}

// Topology returns the simulated ring.
func (s *Sim[M]) Topology() ring.Topology { return s.topo }

// Step returns the number of handler invocations so far.
func (s *Sim[M]) Step() uint64 { return s.step }

// QueueLen returns the number of messages queued on channel c, and 0
// for a channel outside [0, 2n). On the batched fast path this counts
// pulses, not run entries, so schedulers that weight by queue length
// (Random) see the same quantity on both paths.
func (s *Sim[M]) QueueLen(c int) int {
	if uint(c) >= uint(len(s.queues)) {
		return 0
	}
	return int(s.queues[c].tot)
}

// RunsCoalesced reports the batch fast path's win so far: the number of
// batch transitions executed and, of those, how many consumed more than
// one pulse in a single O(1) step. Both are zero without WithBatching.
func (s *Sim[M]) RunsCoalesced() (transitions, multi uint64) { return s.runs, s.coalesced }

// Run initializes every node (in index order, which is itself just one
// admissible schedule; use InitNode for adversarial wake-ups) and delivers
// messages as chosen by the scheduler until quiescence. limit bounds the
// total number of handler invocations.
func (s *Sim[M]) Run(limit uint64) (Result, error) {
	for k := 0; k < s.topo.N(); k++ {
		if s.flags[k]&nodeInit != 0 {
			continue
		}
		if err := s.InitNode(k); err != nil {
			return s.Result(), err
		}
	}
	return s.RunDeliveries(limit)
}

// RunDeliveries delivers until quiescence without initializing anyone;
// callers must have performed the wake-ups they want first (all nodes, for
// the standard model).
func (s *Sim[M]) RunDeliveries(limit uint64) (Result, error) {
	if s.failed != nil {
		return s.Result(), s.failed
	}
	var v View = &view[M]{s: s}
	for {
		if s.step >= limit {
			return s.Result(), s.fail(fmt.Errorf("%w (%d)", ErrStepLimit, limit))
		}
		// The incremental count answers "anything deliverable?" in O(1);
		// the rescan reference recomputes it, staying a true oracle.
		none := s.delivCount == 0
		if s.rescan {
			none = len(s.Deliverable()) == 0
		}
		if none {
			if s.InFlight() == 0 {
				return s.Result(), nil
			}
			if s.allTerminated() {
				return s.Result(), s.fail(fmt.Errorf("%w: %d in flight after all nodes terminated",
					ErrTerminatedNonEmpty, s.InFlight()))
			}
			return s.Result(), s.fail(fmt.Errorf("%w: %d in flight", ErrStalled, s.InFlight()))
		}
		c := s.sched.Next(v)
		// A choice in the deliverable set passes all of checkChoice's
		// checks; any other choice (and every choice on the rescan
		// reference) is checked, so a rogue scheduler gets Deliver's
		// error on both the pulse-by-pulse and the batched path. Every
		// error is made sticky here, though a manual Deliver's choice
		// errors are not: a scheduler that broke its contract ends the
		// run.
		var err error
		if s.rescan || uint(c) >= uint(len(s.queues)) || !s.deliv.get(c) {
			err = s.checkChoice(c)
		}
		if err == nil {
			if s.batch {
				err = s.deliverRun(c, limit-s.step)
			} else {
				err = s.deliver(c)
			}
		}
		if err != nil {
			return s.Result(), s.fail(err)
		}
	}
}

func (s *Sim[M]) allTerminated() bool {
	for _, f := range s.flags {
		if f&nodeTerm == 0 {
			return false
		}
	}
	return true
}

// Result snapshots the current outcome; valid at any point, not only after
// quiescence.
func (s *Sim[M]) Result() Result {
	n := s.topo.N()
	r := Result{
		N:             n,
		Steps:         s.step,
		Sent:          s.sent,
		Delivered:     s.delivered,
		SentCW:        s.sentDir[dirSlot(pulse.CW)],
		SentCCW:       s.sentDir[dirSlot(pulse.CCW)],
		Quiescent:     s.Quiescent(),
		AllTerminated: s.allTerminated(),
		Leader:        -1,
		Statuses:      make([]node.Status, n),
	}
	r.TerminationOrder = append(r.TerminationOrder, s.ordTerm...)
	for k := 0; k < n; k++ {
		st := s.mStatus(k)
		r.Statuses[k] = st
		if st.State == node.StateLeader {
			r.Leaders = append(r.Leaders, k)
		}
	}
	if len(r.Leaders) == 1 {
		r.Leader = r.Leaders[0]
	}
	return r
}
