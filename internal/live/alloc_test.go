package live_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"coleader/internal/core"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// TestLiveAllocsBounded asserts that a live run's allocations do not
// scale with its pulses: a full n=64 Algorithm 2 election delivers 8256
// pulses, so the bound below (1000 allocations for construction plus the
// entire run) can only hold if a delivery costs no allocation — boxing
// the emitter per handler call or a goroutine handoff per pulse would
// each blow through it by an order of magnitude.
func TestLiveAllocsBounded(t *testing.T) {
	const n = 64
	ids := ring.ConsecutiveIDs(n)
	pred := core.PredictedAlg2Pulses(n, ring.MaxID(ids))
	run := func() {
		topo, err := ring.Oriented(n)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(topo, ms)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != pred || res.Delivered != pred {
			t.Fatalf("sent %d, delivered %d pulses, want %d", res.Sent, res.Delivered, pred)
		}
	}
	if allocs := testing.AllocsPerRun(3, run); allocs > 1000 {
		t.Fatalf("construction + %d-pulse run allocated %.0f objects, want <= 1000 (deliveries must not allocate)",
			pred, allocs)
	}
}

// peakGoroutines wraps a machine and records the largest goroutine count
// observed from inside any of its handlers.
type peakGoroutines struct {
	node.PulseMachine
	peak *atomic.Int64
}

func (w peakGoroutines) OnMsg(p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	g := int64(runtime.NumGoroutine())
	for cur := w.peak.Load(); g > cur && !w.peak.CompareAndSwap(cur, g); cur = w.peak.Load() {
	}
	w.PulseMachine.OnMsg(p, m, e)
}

// TestLiveGoroutinesPerNode asserts the runtime spends one goroutine per
// node and nothing per channel: without a fault plane there is no
// supervisor, so a run of n nodes may add at most n goroutines (plus one
// of slack) to those alive before it. Not parallel: other tests'
// goroutines would pollute the count.
func TestLiveGoroutinesPerNode(t *testing.T) {
	const n = 64
	topo, err := ring.Oriented(n)
	if err != nil {
		t.Fatal(err)
	}
	ids := ring.ConsecutiveIDs(n)
	inner, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	var peak atomic.Int64
	ms := make([]node.PulseMachine, n)
	for k, m := range inner {
		ms[k] = peakGoroutines{PulseMachine: m, peak: &peak}
	}
	base := int64(runtime.NumGoroutine())
	res, err := live.Run(topo, ms)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.PredictedAlg2Pulses(n, ring.MaxID(ids)); res.Sent != want {
		t.Fatalf("sent %d pulses, want %d", res.Sent, want)
	}
	if extra := peak.Load() - base; extra > n+1 {
		t.Errorf("run peaked at %d goroutines above its baseline of %d, want <= %d (one per node)",
			extra, base, n+1)
	}
}
