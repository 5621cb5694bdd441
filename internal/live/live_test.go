package live_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// TestLiveAlg2 runs Algorithm 2 on the goroutine runtime: the Go scheduler
// is the asynchronous adversary, yet the outcome and the exact pulse count
// must match Theorem 1 every time.
func TestLiveAlg2(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		ids := ring.PermutedIDs(n, rng)
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
			t.Fatalf("trial %d ids %v: %v", trial, ids, err)
		}
		wantLeader, _ := ring.MaxIndex(ids)
		if res.Leader != wantLeader {
			t.Errorf("trial %d: leader %d, want %d", trial, res.Leader, wantLeader)
		}
		if !res.AllTerminated || !res.Quiescent {
			t.Errorf("trial %d: terminated=%t quiescent=%t", trial, res.AllTerminated, res.Quiescent)
		}
		if want := core.PredictedAlg2Pulses(n, ring.MaxID(ids)); res.Sent != want {
			t.Errorf("trial %d: sent %d, want %d", trial, res.Sent, want)
		}
		if res.Sent != res.Delivered {
			t.Errorf("trial %d: sent %d != delivered %d at quiescence", trial, res.Sent, res.Delivered)
		}
		if len(res.TerminationOrder) != n {
			t.Errorf("trial %d: %d termination records, want %d", trial, len(res.TerminationOrder), n)
		}
	}
}

// TestLiveAlg1 checks the stabilizing algorithm quiesces on the live
// runtime with the exact Corollary 13 count, without terminating.
func TestLiveAlg1(t *testing.T) {
	ids := []uint64{4, 9, 2, 7, 5}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Run(topo, ms)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllTerminated {
		t.Error("Algorithm 1 terminated")
	}
	if want := core.PredictedAlg1Pulses(len(ids), 9); res.Sent != want {
		t.Errorf("sent %d, want %d", res.Sent, want)
	}
	wantLeader, _ := ring.MaxIndex(ids)
	if res.Leader != wantLeader {
		t.Errorf("leader %d, want %d", res.Leader, wantLeader)
	}
}

// TestLiveAlg3NonOriented runs the non-oriented election+orientation on
// real goroutines across random port assignments.
func TestLiveAlg3NonOriented(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(8)
		ids := ring.PermutedIDs(n, rng)
		topo, err := ring.RandomNonOriented(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.Alg3Machines(n, ids, core.SchemeSuccessor)
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(topo, ms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantLeader, _ := ring.MaxIndex(ids)
		if res.Leader != wantLeader {
			t.Errorf("trial %d: leader %d, want %d", trial, res.Leader, wantLeader)
		}
		if want := core.PredictedAlg3Pulses(n, ring.MaxID(ids), core.SchemeSuccessor); res.Sent != want {
			t.Errorf("trial %d: sent %d, want %d", trial, res.Sent, want)
		}
		var dir pulse.Direction
		for k, st := range res.Statuses {
			if !st.HasOrientation {
				t.Errorf("trial %d: node %d unoriented", trial, k)
				continue
			}
			d := topo.DirectionOf(k, st.CWPort)
			if dir == 0 {
				dir = d
			} else if d != dir {
				t.Errorf("trial %d: inconsistent orientation", trial)
			}
		}
	}
}

// TestLiveSelfRing: the one-node ring works with the node's sends
// looping back into its own inbox.
func TestLiveSelfRing(t *testing.T) {
	topo, err := ring.Oriented(1)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Run(topo, ms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 0 || res.Sent != 15 {
		t.Errorf("leader=%d sent=%d, want 0/15", res.Leader, res.Sent)
	}
}

// TestLiveTimeout: a machine that never quiesces trips the deadline.
func TestLiveTimeout(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	ms := []node.PulseMachine{&chatterbox{}, &chatterbox{}}
	_, err = live.Run(topo, ms, live.WithTimeout(50*time.Millisecond))
	if !errors.Is(err, live.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// chatterbox forwards every pulse forever: the network never quiesces.
type chatterbox struct{ got int }

func (c *chatterbox) Init(e node.PulseEmitter) { e.Send(pulse.Port1, pulse.Pulse{}) }
func (c *chatterbox) OnMsg(p pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	c.got++
	e.Send(pulse.Port1, pulse.Pulse{})
}
func (c *chatterbox) Ready(pulse.Port) bool { return true }
func (c *chatterbox) Status() node.Status   { return node.Status{} }

// misrouted sends its Init pulse on port 2, which no ring node has:
// through Send, or as a one-pulse SendRun when run is set.
type misrouted struct{ run bool }

func (m misrouted) Init(e node.PulseEmitter) {
	if m.run {
		e.(node.BatchEmitter).SendRun(pulse.Port(2), 1)
		return
	}
	e.Send(pulse.Port(2), pulse.Pulse{})
}
func (misrouted) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (misrouted) Ready(pulse.Port) bool                            { return true }
func (misrouted) Status() node.Status                              { return node.Status{} }

// TestLiveInvalidSendPort: a send on a port other than Port0 and Port1
// ends the run with an error naming the node and the port, as on the
// simulator and the checker, instead of taking the process down from
// inside a node goroutine.
func TestLiveInvalidSendPort(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []bool{false, true} {
		ms := []node.PulseMachine{misrouted{run}, misrouted{run}, misrouted{run}}
		_, err := live.Run(topo, ms, live.WithTimeout(30*time.Second))
		if err == nil || errors.Is(err, live.ErrTimeout) || !strings.Contains(err.Error(), "sent on invalid port 2") {
			t.Errorf("run=%v: err = %v, want an invalid-port error", run, err)
		}
	}
}

// TestLiveValidation covers input validation.
func TestLiveValidation(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Run(topo, nil); err == nil {
		t.Error("mismatched machine count accepted")
	}
	// A non-positive deadline is an input error, not a stall reported
	// before any node has run.
	for _, d := range []time.Duration{0, -time.Second} {
		ms, err := core.Alg2Machines(topo, []uint64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		_, err = live.Run(topo, ms, live.WithTimeout(d))
		if err == nil || errors.Is(err, live.ErrTimeout) || !strings.Contains(err.Error(), d.String()) {
			t.Errorf("timeout %v: err = %v, want an input error naming %v", d, err, d)
		}
	}
}

// TestLiveStallConservation: every exit path settles the credit a node
// holds, so a stall report's in-flight count is exactly the pulses still
// queued — on a ring stopped mid-chatter and on one stranded by a crash.
func TestLiveStallConservation(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	ms := []node.PulseMachine{&chatterbox{}, &chatterbox{}, &chatterbox{}}
	res, err := live.Run(topo, ms, live.WithTimeout(50*time.Millisecond))
	var stall *live.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("chatter: err = %v, want *StallError", err)
	}
	if q := queued(stall.Report); stall.Report.InFlight != q {
		t.Errorf("chatter: InFlight = %d, want the %d queued pulses", stall.Report.InFlight, q)
	}
	if want := int64(res.Sent - res.Delivered); stall.Report.InFlight != want {
		t.Errorf("chatter: InFlight = %d, want Sent-Delivered = %d", stall.Report.InFlight, want)
	}

	ids := []uint64{3, 1, 4}
	crashTopo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	crashMs, err := core.Alg2Machines(crashTopo, ids)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := fault.New(21, fault.Config{
		Nodes: len(ids), Classes: fault.NewSet(fault.Crash), Budget: 1, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = live.Run(crashTopo, crashMs,
		live.WithFaultPlane(plane), live.WithTimeout(100*time.Millisecond))
	if !errors.As(err, &stall) {
		t.Fatalf("crash: err = %v, want *StallError", err)
	}
	if q := queued(stall.Report); stall.Report.InFlight != q {
		t.Errorf("crash: InFlight = %d, want the %d queued pulses", stall.Report.InFlight, q)
	}
}

// queued sums the pulses a stall report finds queued.
func queued(rep live.StallReport) int64 {
	var q int64
	for _, ns := range rep.Nodes {
		q += int64(ns.Queued[0] + ns.Queued[1])
	}
	return q
}

// TestLiveWakeupStress runs many short elections back to back: a send
// that lands while its receiver is parking must wake it, so a lost
// wake-up in the parked-flag handshake surfaces here as a StallError.
// Then node 0 crashes right after its Init, unsupervised, on rings of 2
// and 3: the wake-up its Init owes a neighbour that parked first must be
// posted on that exit too. With consecutive IDs no other node reaches its
// ID, so every pulse ends up queued at node 0, and a stall that names any
// other node means a wake-up was lost.
func TestLiveWakeupStress(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 1000; trial++ {
		var (
			topo ring.Topology
			ids  []uint64
			ms   []node.PulseMachine
			want uint64
			err  error
		)
		if trial%4 == 3 {
			const n = 4
			ids = ring.PermutedIDs(n, rng)
			if topo, err = ring.RandomNonOriented(n, rng); err != nil {
				t.Fatal(err)
			}
			ms, err = core.Alg3Machines(n, ids, core.SchemeSuccessor)
			want = core.PredictedAlg3Pulses(n, ring.MaxID(ids), core.SchemeSuccessor)
		} else {
			n := []int{2, 3, 5}[trial%3]
			ids = ring.PermutedIDs(n, rng)
			if topo, err = ring.Oriented(n); err != nil {
				t.Fatal(err)
			}
			ms, err = core.Alg2Machines(topo, ids)
			want = core.PredictedAlg2Pulses(n, ring.MaxID(ids))
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(topo, ms, live.WithTimeout(5*time.Second))
		if err != nil {
			t.Fatalf("trial %d: %v ids %v: %v", trial, topo, ids, err)
		}
		wantLeader, _ := ring.MaxIndex(ids)
		if !res.Quiescent || res.Sent != want || res.Delivered != want || res.Leader != wantLeader {
			t.Fatalf("trial %d: %v ids %v: quiescent=%t sent=%d delivered=%d leader=%d, want %d pulses and leader %d",
				trial, topo, ids, res.Quiescent, res.Sent, res.Delivered, res.Leader, want, wantLeader)
		}
	}

	// The stalls wait out their timeout, so the trials run side by side;
	// the timeout leaves every live node ample time to drain.
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for trial := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[trial] = initCrashStall(2 + trial%2)
		}()
	}
	wg.Wait()
	for trial, err := range errs {
		if err != nil {
			t.Errorf("init-crash trial %d: %v", trial, err)
		}
	}
}

// initCrashStall runs Algorithm 2 on n consecutive IDs with node 0
// crashed at its Init, unsupervised, and reports an error unless the run
// stalls with only node 0 named.
func initCrashStall(n int) error {
	topo, err := ring.Oriented(n)
	if err != nil {
		return err
	}
	ms, err := core.Alg2Machines(topo, ring.ConsecutiveIDs(n))
	if err != nil {
		return err
	}
	plane, err := fault.Scripted(fault.Config{Nodes: n, Classes: fault.NewSet(fault.Crash)},
		[]fault.Injection{{Class: fault.Crash, Node: 0, Trigger: 1}})
	if err != nil {
		return err
	}
	_, err = live.Run(topo, ms, live.WithFaultPlane(plane), live.WithTimeout(500*time.Millisecond))
	var stall *live.StallError
	if !errors.As(err, &stall) {
		return fmt.Errorf("n=%d: err = %v, want *StallError", n, err)
	}
	if nodes := stall.Report.Nodes; len(nodes) != 1 || nodes[0].Node != 0 || !nodes[0].Crashed {
		return fmt.Errorf("n=%d: %v, want only the crashed node 0 stalled", n, err)
	}
	return nil
}

// TestLiveMatchesSimulator cross-checks the two runtimes: same ring, same
// IDs — identical leader and identical pulse count (the count is
// schedule-independent by Theorem 1, so the runtimes must agree exactly).
func TestLiveMatchesSimulator(t *testing.T) {
	ids := []uint64{5, 2, 8, 3, 6, 1}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	msLive, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	resLive, err := live.Run(topo, msLive)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.PredictedAlg2Pulses(len(ids), 8); resLive.Sent != want {
		t.Errorf("live sent %d, want %d", resLive.Sent, want)
	}
	wantLeader, _ := ring.MaxIndex(ids)
	if resLive.Leader != wantLeader {
		t.Errorf("live leader %d, want %d", resLive.Leader, wantLeader)
	}
	if resLive.SentCW != 6*8 || resLive.SentCCW != 6*8+6 {
		t.Errorf("direction split (%d,%d), want (48,54)", resLive.SentCW, resLive.SentCCW)
	}
}

// TestLiveTimeoutResult: the Result returned alongside ErrTimeout is a
// usable snapshot of the stuck network, and the error wraps ErrTimeout
// with the in-flight pulse count.
func TestLiveTimeoutResult(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	ms := []node.PulseMachine{&chatterbox{}, &chatterbox{}}
	res, err := live.Run(topo, ms, live.WithTimeout(50*time.Millisecond))
	if !errors.Is(err, live.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "unaccounted") {
		t.Errorf("error %q should report unaccounted pulses", err)
	}
	if res.N != 2 {
		t.Errorf("N = %d, want 2", res.N)
	}
	if res.Quiescent {
		t.Error("a timed-out chatterbox network reported quiescence")
	}
	if res.AllTerminated {
		t.Error("chatterboxes never terminate")
	}
	if res.Leader != -1 || len(res.Leaders) != 0 {
		t.Errorf("leader = %d (%v), want none", res.Leader, res.Leaders)
	}
	if res.Sent == 0 || res.Delivered == 0 {
		t.Errorf("sent=%d delivered=%d: chatter should have flowed before the deadline", res.Sent, res.Delivered)
	}
}

// TestLiveChaosTimeout: the timeout path and the jitter path compose — a
// never-quiescing network under chaos still trips the deadline cleanly.
func TestLiveChaosTimeout(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	ms := []node.PulseMachine{&chatterbox{}, &chatterbox{}, &chatterbox{}}
	res, err := live.Run(topo, ms,
		live.WithChaos(99), live.WithTimeout(50*time.Millisecond))
	if !errors.Is(err, live.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res.Quiescent {
		t.Error("timed-out network reported quiescence")
	}
}

// TestLiveChaosZeroSeed: WithChaos(0) must still inject jitter (the seed
// is forced odd), not silently disable it.
func TestLiveChaosZeroSeed(t *testing.T) {
	ids := []uint64{2, 5}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	res, err := live.Run(topo, ms, live.WithChaos(0), live.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if want := core.PredictedAlg2Pulses(len(ids), 5); res.Sent != want {
		t.Errorf("sent %d, want %d", res.Sent, want)
	}
}

// TestLiveChaosNonOriented: jitter composed with adversarial port
// assignments (Algorithm 3) still yields the unique max-ID leader and a
// consistent orientation.
func TestLiveChaosNonOriented(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for seed := int64(1); seed <= 4; seed++ {
		n := 2 + rng.Intn(5)
		ids := ring.PermutedIDs(n, rng)
		topo, err := ring.RandomNonOriented(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.Alg3Machines(n, ids, core.SchemeSuccessor)
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(topo, ms, live.WithChaos(seed), live.WithTimeout(30*time.Second))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantLeader, _ := ring.MaxIndex(ids)
		if res.Leader != wantLeader {
			t.Errorf("seed %d: leader %d, want %d", seed, res.Leader, wantLeader)
		}
		for k, st := range res.Statuses {
			if !st.HasOrientation {
				t.Errorf("seed %d: node %d unoriented after chaos run", seed, k)
			}
		}
	}
}

// TestLiveChaos: under injected scheduling jitter the exact Theorem 1
// outcome still holds — chaos widens interleavings, never changes results.
func TestLiveChaos(t *testing.T) {
	ids := []uint64{5, 9, 2, 7, 1}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		ms, err := core.Alg2Machines(topo, ids)
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(topo, ms, live.WithChaos(seed), live.WithTimeout(30*time.Second))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Leader != 1 {
			t.Errorf("seed %d: leader %d, want 1", seed, res.Leader)
		}
		if want := core.PredictedAlg2Pulses(len(ids), 9); res.Sent != want {
			t.Errorf("seed %d: sent %d, want %d", seed, res.Sent, want)
		}
	}
}
