package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// tracer records the spans of a traced run. Outer calls (each op, the
// constructor, Run, ExhaustiveFaults, live.Run) get one span each. Hot
// per-pulse calls (Scheduler.Next, OnMsg/OnPulses, the Config.Check
// callback) are tallied as a count and a summed duration per op and
// logged as one aggregate span under the op when it ends, which keeps
// the log bounded by the op count. Spans stay in memory until write.
//
// Every method is a no-op on a nil *tracer, so workload code calls it
// unconditionally and untraced ops pay nothing but a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	op    int // index of the open op span, -1 when none

	// Hot-call tallies of the open op.
	sched, core, check hot
	corePulses         uint64

	// Cost of one tally, split into the part a tallied call's summed
	// duration absorbs (in) and the part its caller's span absorbs (out),
	// in ns; layers subtracts both.
	tallyIn, tallyOut float64
}

// span is one traced interval. Aggregate spans (hot calls) carry Calls
// and SumNS; spans opened with memory accounting carry the heap
// allocations made inside them.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the span log, -1 for roots
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   uint64 `json:"calls,omitempty"`
	SumNS   int64  `json:"sum_ns,omitempty"`
	Pulses  uint64 `json:"pulses,omitempty"`
	Allocs  uint64 `json:"allocs,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`

	mem bool // allocation accounting requested
}

// hot tallies one kind of hot call within an op.
type hot struct {
	calls uint64
	ns    int64
}

func (h *hot) add(t0 time.Time) {
	h.calls++
	h.ns += int64(time.Since(t0))
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), op: -1}
	t.tallyIn, t.tallyOut = tallyCost()
	return t
}

// tallyCost times tallies of an empty call: each round's summed
// duration is the in part, the rest of the round's wall time the out
// part. It returns the medians over a few rounds.
func tallyCost() (in, out float64) {
	const rounds, n = 5, 20000
	var ins, outs []float64
	for range rounds {
		var h hot
		t0 := time.Now()
		for range n {
			h.add(time.Now())
		}
		total := float64(time.Since(t0))
		ins = append(ins, float64(h.ns)/n)
		outs = append(outs, (total-float64(h.ns))/n)
	}
	return quantile(ins, 0.5), quantile(outs, 0.5)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the current op and returns its index. With
// mem set, the span also records the heap allocations made inside it
// (runtime.ReadMemStats at both ends).
func (t *tracer) begin(name string, mem bool) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Parent: t.op, mem: mem}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Allocs, s.Bytes = ms.Mallocs, ms.TotalAlloc
	}
	s.StartNS = t.now()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.EndNS = t.now()
	if s.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Allocs, s.Bytes = ms.Mallocs-s.Allocs, ms.TotalAlloc-s.Bytes
	}
}

// beginOp opens a root op span and clears the hot tallies.
func (t *tracer) beginOp() {
	t.op = t.begin("op", false)
	t.sched, t.core, t.check, t.corePulses = hot{}, hot{}, hot{}, 0
}

// endOp logs the op's hot tallies as aggregate child spans and closes it.
func (t *tracer) endOp() {
	now := t.now()
	start := t.spans[t.op].StartNS
	for _, a := range []struct {
		name   string
		h      hot
		pulses uint64
	}{
		{"sched.Next", t.sched, 0},
		{"core.handler", t.core, t.corePulses},
		{"check.Check", t.check, 0},
	} {
		if a.h.calls == 0 {
			continue
		}
		t.spans = append(t.spans, span{Name: a.name, Parent: t.op, StartNS: start, EndNS: now,
			Calls: a.h.calls, SumNS: a.h.ns, Pulses: a.pulses})
	}
	t.end(t.op)
	t.op = -1
}

// aggregate folds every span named name: how many there are, their
// summed wall time, and their summed call, pulse and allocation tallies.
type aggregate struct {
	n             int
	ns, sumNS     int64
	calls, pulses uint64
	allocs, bytes uint64
}

func (t *tracer) total(name string) aggregate {
	var a aggregate
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		a.n++
		a.ns += s.EndNS - s.StartNS
		a.sumNS += s.SumNS
		a.calls += s.Calls
		a.pulses += s.Pulses
		a.allocs += s.Allocs
		a.bytes += s.Bytes
	}
	return a
}

// write stores the span log as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// scheduler wraps s so every Next is tallied. The wrapper forwards
// sim.HeapHinted when s implements it: without the hints the simulator
// builds no aux heap, and Heaviest would silently fall back to its
// O(deliverable) scan.
func (t *tracer) scheduler(s sim.Scheduler) sim.Scheduler {
	if t == nil {
		return s
	}
	ts := timedScheduler{inner: s, h: &t.sched}
	if hh, ok := s.(sim.HeapHinted); ok {
		return hintedScheduler{ts, hh}
	}
	return ts
}

type timedScheduler struct {
	inner sim.Scheduler
	h     *hot
}

func (s timedScheduler) Next(v sim.View) int {
	t0 := time.Now()
	c := s.inner.Next(v)
	s.h.add(t0)
	return c
}

type hintedScheduler struct {
	timedScheduler
	hints sim.HeapHinted
}

func (s hintedScheduler) HeapHints() []sim.HeapHint { return s.hints.HeapHints() }

// flatBank wraps a batch-capable flat bank so every OnPulses is tallied;
// the batched engine delivers through OnPulses alone. The wrapper must
// stay a node.FlatBatchMachine: sim.WithBatching rejects any bank that is
// not one with ErrBatchUnsupported.
func (t *tracer) flatBank(b node.FlatBatchMachine) node.FlatBatchMachine {
	if t == nil {
		return b
	}
	return timedFlatBank{b, t}
}

type timedFlatBank struct {
	node.FlatBatchMachine
	t *tracer
}

func (b timedFlatBank) OnPulses(k int, p pulse.Port, n uint64, e node.BatchEmitter) uint64 {
	t0 := time.Now()
	c := b.FlatBatchMachine.OnPulses(k, p, n, e)
	b.t.core.add(t0)
	b.t.corePulses += c
	return c
}

// machines wraps pointer machines so every OnMsg is tallied. The wrapper
// exposes only node.PulseMachine: none of the snapshot, key or clone
// surfaces, which the pulse-by-pulse simulator never calls.
func (t *tracer) machines(ms []node.PulseMachine) []node.PulseMachine {
	if t == nil {
		return ms
	}
	out := make([]node.PulseMachine, len(ms))
	for k, m := range ms {
		out[k] = timedMachine{m, t}
	}
	return out
}

type timedMachine struct {
	node.PulseMachine
	t *tracer
}

func (m timedMachine) OnMsg(p pulse.Port, msg pulse.Pulse, e node.PulseEmitter) {
	t0 := time.Now()
	m.PulseMachine.OnMsg(p, msg, e)
	m.t.core.add(t0)
	m.t.corePulses++
}
