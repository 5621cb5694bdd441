// Package fault is a seeded, deterministic fault plane shared by the
// simulator (internal/sim) and the live runtime (internal/live). It models
// a configurable adversary with a bounded fault budget: the whole injection
// schedule is precomputed at construction from an xrand-split stream, so
// identical (seed, Config) always produces the identical schedule — and, on
// the deterministic simulator, the identical run — regardless of worker
// count or runtime.
//
// The paper's model (Section 2) forbids every fault class here: channels
// never drop, duplicate, or inject pulses, and nodes do not fail. The plane
// exists to probe what happens beyond the model — the quiescently
// stabilizing algorithms (1 and 3) degrade gracefully or recover, while the
// quiescently terminating ones (2 and 4) visibly violate their guarantees.
// DESIGN.md §9 maps each class to the model clause it breaks.
//
// Triggers are expressed in each target entity's local event count — "the
// t-th send placed on channel c", "the t-th delivery taken from channel c",
// "after node k's j-th handler invocation" (a node's Init is invocation 1)
// — not in global time, so the same schedule is meaningful on both the
// simulator's totally ordered steps and the live runtime's real
// concurrency.
//
// Trigger room. A runtime that takes a run of events on one entity at a
// time (the live runtime hands a run of same-port pulses to one
// node.BatchMachine.OnPulses) asks Room how many more events the entity's
// counter can take before its next pending injection could fire, and
// advances the counter past up to that many with one Skip instead of one
// consult each. A skipped event is indistinguishable from a consulted one
// that returned 0, so a runtime that skips at most Room events and consults
// at Room 0 fires every injection at the ordinal a per-event runtime would.
// An entity with nothing pending has room math.MaxUint64. Under
// TriggerWindow the firing event depends on the ring-wide delivery count,
// not on the entity's own, so an entity with anything pending has room 0
// (every event is consulted); skipped deliveries still advance the
// ring-wide count.
//
// Concurrency contract: the Plane itself holds no locks. Each counter is
// owned by exactly one caller — in the simulator everything runs on the
// event loop; on the live runtime each channel has a single sender (the
// ring peer) and a single receiver (the receiving node's goroutine), and
// each node a single goroutine — so OnSend, OnDeliver, OnHandler, Room and
// Skip for a given entity are always invoked from one goroutine. Log must
// only be called after the run has completed (for the live runtime: after
// Run returned, which orders all goroutine writes before the read).
//
// Content-obliviousness holds for the adversary too: every decision is a
// function of seeds and event counts, never of payloads — the package is
// registered in oblint's Oblivious list to keep it that way.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"coleader/internal/xrand"
)

// Class identifies one fault class. The zero value means "no fault" and is
// what the injection hooks return on the overwhelmingly common path.
type Class uint8

// Fault classes, each independently enable-able.
const (
	// Loss: a sent pulse vanishes before reaching its channel queue.
	Loss Class = iota + 1
	// Dup: a sent pulse is placed on its channel queue twice.
	Dup
	// Spurious: a pulse nobody sent appears on a channel.
	Spurious
	// Crash: a node silently stops after a handler (fail-stop; queued
	// pulses addressed to it are never consumed).
	Crash
	// Restart: a node crashes after a handler and immediately restarts
	// from its initial state (node.Undoable restore + a fresh Init).
	Restart
	// Corrupt: a node's state is transiently perturbed after a handler
	// (node.Undoable restore from a randomized snapshot).
	Corrupt

	classCount = int(Corrupt)
)

var classNames = [classCount + 1]string{"none", "loss", "dup", "spurious", "crash", "restart", "corrupt"}

// String returns the class's lowercase name.
func (c Class) String() string {
	if int(c) <= classCount {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Set is a bitmask of enabled fault classes.
type Set uint8

// AllClasses enables every fault class.
const AllClasses Set = 1<<classCount - 1

// NewSet builds a Set from classes.
func NewSet(cs ...Class) Set {
	var s Set
	for _, c := range cs {
		s |= 1 << (c - 1)
	}
	return s
}

// Has reports whether class c is enabled.
func (s Set) Has(c Class) bool { return s&(1<<(c-1)) != 0 }

// Classes returns the enabled classes in ascending order.
func (s Set) Classes() []Class {
	var cs []Class
	for c := Loss; int(c) <= classCount; c++ {
		if s.Has(c) {
			cs = append(cs, c)
		}
	}
	return cs
}

// String renders the set as a comma-separated class list.
func (s Set) String() string {
	cs := s.Classes()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.String()
	}
	return strings.Join(names, ",")
}

// ParseSet parses a comma-separated class list ("loss,corrupt"), or "all".
func ParseSet(spec string) (Set, error) {
	if spec == "all" {
		return AllClasses, nil
	}
	var s Set
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		found := false
		for c := Loss; int(c) <= classCount; c++ {
			if classNames[c] == name {
				s |= 1 << (c - 1)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("fault: unknown class %q (want loss|dup|spurious|crash|restart|corrupt|all)", name)
		}
	}
	return s, nil
}

// Kind names a counter domain: the kind of entity whose local event count
// arms an injection, and the first argument of Room and Skip.
type Kind uint8

const (
	// Sends counts the pulses placed on a channel; it arms Loss and Dup.
	Sends Kind = iota
	// Deliveries counts the pulses taken from a channel; it arms Spurious.
	Deliveries
	// Handlers counts a node's handler invocations (Init is the first); it
	// arms Crash, Restart and Corrupt.
	Handlers

	kindCount
)

// TriggerMode selects how an injection's Trigger ordinal is interpreted.
type TriggerMode uint8

const (
	// TriggerLocal (the default): Trigger is the target entity's local
	// event ordinal — "the t-th send on this channel", "node k's t-th
	// handler". Purely per-entity, so the plane needs no shared state.
	TriggerLocal TriggerMode = iota

	// TriggerWindow: Trigger is a ring-wide delivery ordinal. The
	// injection arms once the plane has observed Trigger deliveries in
	// total (across every channel) and fires at the target entity's next
	// local event. This expresses timing-dependent faults the per-entity
	// counters cannot — "crash node k once the ring as a whole has made
	// this much progress" — even when the target itself is idle until
	// then. The global delivery counter is the plane's one piece of
	// shared state and is atomic; on the live runtime the exact event at
	// which a target first observes the open window is scheduler-
	// dependent (whether it fires by the end of the run is monotone in
	// the window), while on the simulator it is as deterministic as
	// every other counter.
	TriggerWindow
)

// PerturbMode selects how Corrupt injections mangle a snapshot.
type PerturbMode uint8

const (
	// PerturbOutput XORs a nonzero mask into the snapshot's final byte.
	// Every core machine's Undoable encoding ends with its output
	// state/flags byte, so this corrupts what the node *reports* (state,
	// orientation) while leaving its counters — and therefore the pulse
	// traffic — untouched: the fault class the stabilization theorems
	// provably recover from.
	PerturbOutput PerturbMode = iota
	// PerturbBytes XORs nonzero masks into 1–3 random snapshot bytes,
	// counters included: arbitrary transient memory corruption.
	PerturbBytes
)

// Config parameterizes a Plane.
type Config struct {
	// Nodes is the ring size; channels are numbered 0..2*Nodes-1 with
	// channel 2k+p feeding port p of node k (the runtimes' convention).
	Nodes int
	// Classes is the set of enabled fault classes.
	Classes Set
	// Budget is the number of injections to schedule.
	Budget int
	// Horizon bounds trigger draws: each injection arms at a local event
	// ordinal drawn uniformly from [1, Horizon]. 0 means 8.
	Horizon uint64
	// Mode selects the Corrupt perturbation (default PerturbOutput).
	Mode PerturbMode
	// Trigger selects how Trigger ordinals are interpreted (default
	// TriggerLocal). With TriggerWindow, each injection arms once the
	// ring-wide delivery count reaches its Trigger and fires at the
	// target's next local event.
	Trigger TriggerMode
}

// Injection is one scheduled fault, doubling as its own log entry once the
// run has consumed the plane.
type Injection struct {
	Class Class
	// Node is the target node: the restarted/crashed/corrupted node for
	// node classes, the receiving node of Chan for channel classes.
	Node int
	// Chan is the target channel for Loss/Dup/Spurious, -1 for node
	// classes.
	Chan int
	// Trigger is the ordinal that arms the injection (1-based): the
	// target entity's local event count under TriggerLocal, the
	// ring-wide delivery count under TriggerWindow.
	Trigger uint64
	// Windowed records that Trigger is a TriggerWindow ordinal.
	Windowed bool
	// Step is the simulator step at which the injection fired (0 on the
	// live runtime, whose events have no global order).
	Step uint64
	// Fired reports that the run reached the trigger.
	Fired bool
	// Skipped reports that the trigger was reached but the target could
	// not absorb the fault (a Restart/Corrupt aimed at a machine that is
	// not node.Undoable).
	Skipped bool
}

// String renders one schedule/log line.
func (in Injection) String() string {
	var b strings.Builder
	unit := "event"
	if in.Windowed {
		unit = "delivery-window"
	} else if in.Chan < 0 {
		unit = "handler"
	}
	if in.Chan >= 0 {
		fmt.Fprintf(&b, "%s chan %d (node %d port %d) @%s#%d", in.Class, in.Chan, in.Node, in.Chan&1, unit, in.Trigger)
	} else {
		fmt.Fprintf(&b, "%s node %d @%s#%d", in.Class, in.Node, unit, in.Trigger)
	}
	switch {
	case in.Skipped:
		b.WriteString(" [skipped: target not restorable]")
	case !in.Fired:
		b.WriteString(" [never fired]")
	case in.Step > 0:
		fmt.Fprintf(&b, " [fired at step %d]", in.Step)
	default:
		b.WriteString(" [fired]")
	}
	return b.String()
}

// Plane is one run's worth of scheduled faults plus the event counters that
// arm them. A Plane is single-use: attach it to exactly one run, then read
// the log.
type Plane struct {
	cfg  Config
	seed int64

	// log holds every injection in schedule order; the pending lists
	// below index into it.
	log []Injection

	// Per-entity pending injection indices by Kind, then by channel
	// (Sends, Deliveries) or node (Handlers), ascending by Trigger, with
	// the head popped as counters pass it. Triggers are unique per
	// counter domain (construction bumps collisions), so at most the
	// head can match.
	pending [kindCount][][]int
	// count holds each entity's local event count, indexed like pending.
	count [kindCount][]uint64

	// lastNode tracks, per node, the most recently fired node injection
	// so the runtime can mark it skipped (SkipLast).
	lastNode []int

	// globalDeliv counts deliveries ring-wide; only consulted under
	// TriggerWindow. It is the plane's single cross-entity counter, so it
	// is atomic rather than caller-owned (see the concurrency contract in
	// the package comment).
	globalDeliv atomic.Uint64
}

// streams for xrand.Split: the schedule draw and the perturb masks.
const (
	streamSchedule = 0xFA01
	streamPerturb  = 0xFA02
)

// New builds the plane for one run: the full injection schedule is drawn
// here, deterministically from (seed, cfg).
func New(seed int64, cfg Config) (*Plane, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fault: %d nodes", cfg.Nodes)
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("fault: negative budget %d", cfg.Budget)
	}
	if cfg.Budget > 0 && cfg.Classes == 0 {
		return nil, fmt.Errorf("fault: budget %d with no classes enabled", cfg.Budget)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 8
	}
	n := cfg.Nodes
	p := newPlane(seed, cfg)
	enabled := cfg.Classes.Classes()
	if cfg.Budget == 0 || len(enabled) == 0 {
		return p, nil
	}
	rng := xrand.New(xrand.Split(seed, streamSchedule, uint64(n)))
	taken := triggerIndex{}
	for b := 0; b < cfg.Budget; b++ {
		cl := enabled[rng.Intn(len(enabled))]
		in := Injection{Class: cl, Chan: -1}
		switch cl {
		case Loss, Dup, Spurious:
			in.Chan = rng.Intn(2 * n)
			in.Node = in.Chan / 2
		default:
			in.Node = rng.Intn(n)
		}
		in.Trigger = 1 + uint64(rng.Int63n(int64(cfg.Horizon)))
		in.Windowed = cfg.Trigger == TriggerWindow
		// Triggers must be unique within a counter domain so that at
		// most one injection arms per event; a collision bumps to the
		// lowest free trigger above it. (Under TriggerWindow at most
		// the head of a pending list can fire per event regardless,
		// but unique triggers keep the schedule shape identical across
		// modes.)
		in.Trigger = taken.take(in)
		p.log = append(p.log, in)
	}
	p.indexSchedule()
	return p, nil
}

// Scripted builds a plane from an explicit injection schedule instead of
// a seeded draw: each entry names its class, target, and trigger ordinal
// directly. Deterministic fault tests (crash exactly this node at exactly
// this handler) use it where New's sampled schedules would be awkward to
// pin. Entries must satisfy the same invariants the sampler guarantees:
// 1-based triggers, unique per counter domain and target.
func Scripted(cfg Config, schedule []Injection) (*Plane, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fault: %d nodes", cfg.Nodes)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 8
	}
	n := cfg.Nodes
	p := newPlane(0, cfg)
	taken := triggerIndex{}
	for i, in := range schedule {
		if in.Class < Loss || int(in.Class) > classCount {
			return nil, fmt.Errorf("fault: scripted injection %d: unknown class %d", i, in.Class)
		}
		switch in.Class {
		case Loss, Dup, Spurious:
			if in.Chan < 0 || in.Chan >= 2*n {
				return nil, fmt.Errorf("fault: scripted injection %d: channel %d out of range", i, in.Chan)
			}
			in.Node = in.Chan / 2
		default:
			if in.Node < 0 || in.Node >= n {
				return nil, fmt.Errorf("fault: scripted injection %d: node %d out of range", i, in.Node)
			}
			in.Chan = -1
		}
		if in.Trigger == 0 {
			return nil, fmt.Errorf("fault: scripted injection %d: triggers are 1-based", i)
		}
		in.Windowed = cfg.Trigger == TriggerWindow
		in.Step, in.Fired, in.Skipped = 0, false, false
		if taken.take(in) != in.Trigger {
			return nil, fmt.Errorf("fault: scripted injection %d: duplicate trigger %d in its domain", i, in.Trigger)
		}
		p.log = append(p.log, in)
	}
	p.indexSchedule()
	return p, nil
}

// newPlane allocates an empty plane for cfg, whose Horizon is already
// defaulted.
func newPlane(seed int64, cfg Config) *Plane {
	n := cfg.Nodes
	p := &Plane{cfg: cfg, seed: seed, lastNode: make([]int, n)}
	for kind, size := range [kindCount]int{Sends: 2 * n, Deliveries: 2 * n, Handlers: n} {
		p.pending[kind] = make([][]int, size)
		p.count[kind] = make([]uint64, size)
	}
	for k := range p.lastNode {
		p.lastNode[k] = -1
	}
	return p
}

// kind returns the counter domain an injection arms in.
func (in Injection) kind() Kind {
	switch in.Class {
	case Loss, Dup:
		return Sends
	case Spurious:
		return Deliveries
	default:
		return Handlers
	}
}

// target returns the entity whose counter arms an injection: its channel
// for the channel classes, its node for the node classes.
func (in Injection) target() int {
	if in.kind() == Handlers {
		return in.Node
	}
	return in.Chan
}

// triggerSlot is one trigger ordinal of one entity's counter.
type triggerSlot struct {
	kind    Kind
	target  int
	trigger uint64
}

// triggerIndex records the triggers taken in each counter domain as a
// union-find over taken slots: each taken slot links to a slot above it
// that was free when it was linked, and take compresses the chains it
// walks, so drawing a whole schedule costs near-linear time in its length
// however often triggers collide.
type triggerIndex map[triggerSlot]uint64

// take claims the lowest free trigger at or above in's and returns it.
func (ix triggerIndex) take(in Injection) uint64 {
	s := triggerSlot{in.kind(), in.target(), in.Trigger}
	free := s.trigger
	for {
		next, ok := ix[triggerSlot{s.kind, s.target, free}]
		if !ok {
			break
		}
		free = next
	}
	// Link every slot on the walked chain, and the claimed one, past it.
	for t := s.trigger; t != free; {
		slot := triggerSlot{s.kind, s.target, t}
		t = ix[slot]
		ix[slot] = free + 1
	}
	ix[triggerSlot{s.kind, s.target, free}] = free + 1
	return free
}

func (p *Plane) indexSchedule() {
	for i, in := range p.log {
		list := &p.pending[in.kind()][in.target()]
		*list = append(*list, i)
	}
	for _, lists := range p.pending {
		for _, list := range lists {
			sort.Slice(list, func(a, b int) bool {
				return p.log[list[a]].Trigger < p.log[list[b]].Trigger
			})
		}
	}
}

// fire pops the head of pending if it is armed at this event — its trigger
// equals the entity's local count (TriggerLocal), or the ring-wide delivery
// count has reached it (TriggerWindow) — records the firing, and returns
// the class (0 otherwise).
func (p *Plane) fire(pending *[]int, count, step uint64) (Class, int) {
	list := *pending
	if len(list) == 0 {
		return 0, -1
	}
	trig := p.log[list[0]].Trigger
	if p.cfg.Trigger == TriggerWindow {
		if trig > p.globalDeliv.Load() {
			return 0, -1
		}
	} else if trig != count {
		return 0, -1
	}
	i := list[0]
	*pending = list[1:]
	p.log[i].Fired = true
	p.log[i].Step = step
	return p.log[i].Class, i
}

// OnSend advances channel c's send counter and returns Loss, Dup, or 0 for
// the pulse being placed on c. step tags the log entry (pass 0 when there
// is no global step, as on the live runtime).
func (p *Plane) OnSend(step uint64, c int) Class {
	p.count[Sends][c]++
	cl, _ := p.fire(&p.pending[Sends][c], p.count[Sends][c], step)
	return cl
}

// OnDeliver advances channel c's delivery counter (and, under
// TriggerWindow, the ring-wide one) and returns Spurious if a pulse must
// be injected onto c around this delivery, else 0.
func (p *Plane) OnDeliver(step uint64, c int) Class {
	if p.cfg.Trigger == TriggerWindow {
		p.globalDeliv.Add(1)
	}
	p.count[Deliveries][c]++
	cl, _ := p.fire(&p.pending[Deliveries][c], p.count[Deliveries][c], step)
	return cl
}

// OnHandler advances node k's handler counter (Init is invocation 1) and
// returns Crash, Restart, Corrupt, or 0.
func (p *Plane) OnHandler(step uint64, k int) Class {
	p.count[Handlers][k]++
	cl, i := p.fire(&p.pending[Handlers][k], p.count[Handlers][k], step)
	if cl != 0 {
		p.lastNode[k] = i
	}
	return cl
}

// Room returns how many more events entity id of the given kind (a channel
// for Sends and Deliveries, a node for Handlers) can take before its next
// pending injection could fire: math.MaxUint64 with nothing pending, 0
// when its very next event must be consulted. Under TriggerWindow an
// entity with anything pending has room 0.
func (p *Plane) Room(kind Kind, id int) uint64 {
	list := p.pending[kind][id]
	if len(list) == 0 {
		return math.MaxUint64
	}
	if p.cfg.Trigger == TriggerWindow {
		return 0
	}
	// A head's trigger is always above its counter: triggers are unique
	// and ascending, and the head pops when the counter reaches it.
	return p.log[list[0]].Trigger - p.count[kind][id] - 1
}

// Skip advances entity id's counter by m events, exactly as m consults
// that return 0 would; skipped deliveries also advance the ring-wide
// delivery count. m must not exceed Room(kind, id): Skip panics rather
// than step over a trigger.
func (p *Plane) Skip(kind Kind, id int, m uint64) {
	if room := p.Room(kind, id); m > room {
		panic(fmt.Sprintf("fault: skip of %d events on entity %d of kind %d exceeds its room of %d", m, id, kind, room))
	}
	p.count[kind][id] += m
	if kind == Deliveries && p.cfg.Trigger == TriggerWindow {
		p.globalDeliv.Add(m)
	}
}

// SkipLast marks node k's most recently fired injection as skipped: the
// runtime reached the trigger but the target machine could not absorb the
// fault (it does not implement node.Undoable).
func (p *Plane) SkipLast(k int) {
	if i := p.lastNode[k]; i >= 0 {
		p.log[i].Skipped = true
	}
}

// Perturb returns a corrupted copy of snap per the configured PerturbMode.
// The mask stream is a pure function of (plane seed, node, the node's
// handler count), so a given firing corrupts identically on every runtime.
func (p *Plane) Perturb(k int, snap []byte) []byte {
	out := append([]byte(nil), snap...)
	if len(out) == 0 {
		return out
	}
	rng := xrand.New(xrand.Split(p.seed, streamPerturb, uint64(k), p.count[Handlers][k]))
	nonzero := func() byte {
		if m := byte(rng.Uint64()); m != 0 {
			return m
		}
		return 0x5A
	}
	switch p.cfg.Mode {
	case PerturbBytes:
		for i, nb := 0, 1+rng.Intn(3); i < nb; i++ {
			out[rng.Intn(len(out))] ^= nonzero()
		}
	default:
		out[len(out)-1] ^= nonzero()
	}
	return out
}

// Config returns the plane's (normalized) configuration.
func (p *Plane) Config() Config { return p.cfg }

// Seed returns the plane's seed.
func (p *Plane) Seed() int64 { return p.seed }

// Log returns a copy of the injection schedule with firing annotations.
// Call only after the run using this plane has completed.
func (p *Plane) Log() []Injection {
	return append([]Injection(nil), p.log...)
}

// Fired counts injections whose trigger was reached (including skipped
// ones). Call only after the run has completed.
func (p *Plane) Fired() int {
	n := 0
	for _, in := range p.log {
		if in.Fired {
			n++
		}
	}
	return n
}

// FormatLog renders the schedule one injection per line, for reports.
func FormatLog(log []Injection) string {
	var b strings.Builder
	for i, in := range log {
		fmt.Fprintf(&b, "  [%d] %s\n", i+1, in)
	}
	return b.String()
}
