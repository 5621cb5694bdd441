package live_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// Batched runs on n=16 with IDs 8, 16, ..., 128: every Algorithm 2 node
// handles Init plus 128 clockwise and 129 counterclockwise pulses, its
// clockwise input channel carries 128 sends and its counterclockwise one
// 129, so ordinals in the hundreds sit deep inside the runs OnPulses
// takes in one transition.
const (
	batchN     = 16
	batchScale = 8
)

// longestRun wraps an Algorithm 2 node and records the longest run any
// node of the ring consumed in one OnPulses call.
type longestRun struct {
	*core.Alg2
	most *atomic.Uint64
}

func (l longestRun) OnPulses(p pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	got := l.Alg2.OnPulses(p, k, e)
	for cur := l.most.Load(); got > cur && !l.most.CompareAndSwap(cur, got); cur = l.most.Load() {
	}
	return got
}

// batchRing builds the ring; most records its longest OnPulses run.
func batchRing(t *testing.T, most *atomic.Uint64) (ring.Topology, []node.PulseMachine, uint64) {
	t.Helper()
	ids := make([]uint64, batchN)
	for k := range ids {
		ids[k] = batchScale * uint64(k+1)
	}
	topo, err := ring.Oriented(batchN)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range ms {
		ms[k] = longestRun{m.(*core.Alg2), most}
	}
	return topo, ms, core.PredictedAlg2Pulses(batchN, ring.MaxID(ids))
}

// corruptMask returns the XOR mask an output corruption of node k at
// handler ordinal tr applies to Algorithm 2's flags byte: Perturb draws it
// from the plane seed (0 for a scripted plane), the node and its handler
// count. Bits 4 and 5 of that byte are termSent and terminated.
func corruptMask(t *testing.T, k int, tr uint64) byte {
	t.Helper()
	probe, err := fault.Scripted(fault.Config{Nodes: batchN}, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe.Skip(fault.Handlers, k, tr)
	return probe.Perturb(k, make([]byte, 33))[32]
}

// outputOnlyTrigger returns the first handler ordinal of node k at or
// after from whose output corruption leaves Algorithm 2's termination
// flags alone, whose corruption would change the pulse total.
func outputOnlyTrigger(t *testing.T, k int, from uint64) uint64 {
	t.Helper()
	for tr := from; tr < from+64; tr++ {
		if corruptMask(t, k, tr)&0x30 == 0 {
			return tr
		}
	}
	t.Fatalf("no output-only corruption mask for node %d in 64 handlers from %d", k, from)
	return 0
}

// TestLiveBatchKeepsTriggerOrdinals: OnPulses runs are cut at the plane's
// trigger room and skipped past it, so node and channel injections scripted
// deep inside runs fire at their ordinals. Crashes healed from checkpoints
// and output-only corruptions leave Theorem 1's total intact; losses,
// duplicates and spurious pulses each fire, one per run.
func TestLiveBatchKeepsTriggerOrdinals(t *testing.T) {
	t.Run("crash-corrupt", func(t *testing.T) {
		var most atomic.Uint64
		topo, ms, want := batchRing(t, &most)
		sched := []fault.Injection{
			{Class: fault.Crash, Node: 3, Trigger: 100},
			{Class: fault.Crash, Node: 11, Trigger: 200},
			{Class: fault.Crash, Node: 3, Trigger: 230},
			{Class: fault.Corrupt, Node: 6, Trigger: outputOnlyTrigger(t, 6, 60)},
			{Class: fault.Corrupt, Node: 12, Trigger: outputOnlyTrigger(t, 12, 170)},
		}
		plane, err := fault.Scripted(fault.Config{Nodes: batchN, Classes: fault.NewSet(fault.Crash, fault.Corrupt)}, sched)
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(topo, ms, live.WithFaultPlane(plane),
			live.WithSupervisor(live.RestoreCheckpoint), live.WithTimeout(30*time.Second))
		if err != nil {
			t.Fatalf("%v\n%s", err, fault.FormatLog(plane.Log()))
		}
		if got := plane.Fired(); got != len(sched) {
			t.Errorf("%d of %d injections fired:\n%s", got, len(sched), fault.FormatLog(plane.Log()))
		}
		if res.Sent != want || res.Delivered != want || !res.Quiescent {
			t.Errorf("sent %d, delivered %d, quiescent %t; want %d pulses at quiescence",
				res.Sent, res.Delivered, res.Quiescent, want)
		}
		if len(res.Heals) != 3 {
			t.Errorf("heals %v, want three", res.Heals)
		}
		t.Logf("longest OnPulses run: %d pulses", most.Load())
		if most.Load() < 2 {
			t.Errorf("the longest OnPulses run consumed %d pulses; the batched path never ran", most.Load())
		}
	})
	for _, in := range []fault.Injection{
		{Class: fault.Loss, Chan: 2 * 5, Trigger: 90},
		{Class: fault.Dup, Chan: 2*9 + 1, Trigger: 120},
		{Class: fault.Spurious, Chan: 2 * 13, Trigger: 110},
	} {
		t.Run(in.Class.String(), func(t *testing.T) {
			var most atomic.Uint64
			topo, ms, _ := batchRing(t, &most)
			plane, err := fault.Scripted(fault.Config{Nodes: batchN, Classes: fault.AllClasses}, []fault.Injection{in})
			if err != nil {
				t.Fatal(err)
			}
			// The damage may strand pulses; a stall is an expected outcome.
			_, err = live.Run(topo, ms, live.WithFaultPlane(plane), live.WithTimeout(200*time.Millisecond))
			if err != nil && !errors.Is(err, live.ErrTimeout) {
				t.Fatal(err)
			}
			if plane.Fired() != 1 {
				t.Errorf("injection never fired (longest OnPulses run %d):\n%s", most.Load(), fault.FormatLog(plane.Log()))
			}
		})
	}
}

// TestLiveBatchRevivedLeader: an output corruption on the leader's
// terminating handler that clears its terminated flag leaves
// rho_ccw > rho_cw, a state no fault-free run reaches, and a spurious
// pulse injected on that last delivery is then still queued on the
// counterclockwise port. The batched path must take it as OnMsg would:
// the leader absorbs it and terminates again, and the run quiesces with
// Theorem 1's total plus the injected pulse.
func TestLiveBatchRevivedLeader(t *testing.T) {
	const maxID = batchScale * batchN
	const lastCCW = maxID + 1               // the leader's counterclockwise deliveries
	const terminating = 1 + maxID + lastCCW // Init, then every pulse it takes
	// Place the leader where the mask flips terminated but not termSent.
	leader := -1
	for j := 0; j < batchN && leader < 0; j++ {
		if corruptMask(t, j, terminating)&0x30 == 0x20 {
			leader = j
		}
	}
	if leader < 0 {
		t.Fatalf("no node whose mask at handler %d clears only the terminated flag", terminating)
	}
	ids := make([]uint64, batchN)
	for k := range ids {
		ids[k] = batchScale * uint64((k+batchN-leader-1)%batchN+1)
	}
	topo, err := ring.Oriented(batchN)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	sched := []fault.Injection{
		{Class: fault.Spurious, Chan: 2*leader + int(topo.CWPort(leader)), Trigger: lastCCW},
		{Class: fault.Corrupt, Node: leader, Trigger: terminating},
	}
	plane, err := fault.Scripted(fault.Config{Nodes: batchN, Classes: fault.NewSet(fault.Spurious, fault.Corrupt)}, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Run(topo, ms, live.WithFaultPlane(plane), live.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatalf("%v\n%s", err, fault.FormatLog(plane.Log()))
	}
	want := core.PredictedAlg2Pulses(batchN, maxID)
	if got := plane.Fired(); got != len(sched) {
		t.Errorf("%d of %d injections fired:\n%s", got, len(sched), fault.FormatLog(plane.Log()))
	}
	// The runtime counts the injected pulse among the sent ones.
	if !res.Quiescent || !res.AllTerminated || res.Sent != want+1 || res.Delivered != want+1 {
		t.Errorf("sent %d, delivered %d, quiescent %t, all terminated %t; want %d of each with every node terminated",
			res.Sent, res.Delivered, res.Quiescent, res.AllTerminated, want+1)
	}
}

// zeroRun breaks the OnPulses contract by consuming nothing.
type zeroRun struct{ *core.Alg2 }

func (zeroRun) OnPulses(pulse.Port, uint64, node.BatchEmitter) uint64 { return 0 }

// TestLiveBatchContractBreach: an OnPulses that consumes none of the
// pulses it was offered ends the run with an error instead of taking the
// process down from inside a node goroutine.
func TestLiveBatchContractBreach(t *testing.T) {
	topo, err := ring.Oriented(4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, []uint64{3, 1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	ms[2] = zeroRun{ms[2].(*core.Alg2)}
	_, err = live.Run(topo, ms, live.WithTimeout(30*time.Second))
	if err == nil || errors.Is(err, live.ErrTimeout) || !strings.Contains(err.Error(), "consumed 0") {
		t.Fatalf("err = %v, want the broken OnPulses contract", err)
	}
}
