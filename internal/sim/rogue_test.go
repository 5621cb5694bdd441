package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// rogue follows Canonical until pick offers a channel, returns that
// channel once, and follows Canonical again after: a scheduler breaking
// Next's contract at one chosen moment.
type rogue struct {
	s     *sim.Sim[pulse.Pulse]
	pick  func(s *sim.Sim[pulse.Pulse], v sim.View) (c int, ok bool)
	fired bool
}

func (r *rogue) Next(v sim.View) int {
	if !r.fired {
		if c, ok := r.pick(r.s, v); ok {
			r.fired = true
			return c
		}
	}
	return sim.Canonical{}.Next(v)
}

// queuedNotDeliverable returns a channel that holds pulses and is not in
// v.Deliverable() whose receiver satisfies want, or -1.
func queuedNotDeliverable(s *sim.Sim[pulse.Pulse], v sim.View, want func(k int, p pulse.Port) bool) int {
	deliverable := map[int]bool{}
	for _, c := range v.Deliverable() {
		deliverable[c] = true
	}
	for c := 0; c < 2*s.Topology().N(); c++ {
		if v.QueueLen(c) > 0 && !deliverable[c] && want(sim.ChanNode(c), sim.ChanPort(c)) {
			return c
		}
	}
	return -1
}

// TestRogueSchedulerErrors: a scheduler that returns a channel outside
// Deliverable() — out of range, empty (a terminated node's channel among
// them), a non-Ready port, an uninitialized or crashed node's channel —
// makes Run return the
// engine's structured error for that choice, on the pulse-by-pulse
// path, the batched path and the rescan reference, and never panics. The texts are the ones the
// engine reported before RunDeliveries validated choices with one
// deliverable-set test. The error is sticky: a second Run returns it
// again even though the scheduler has gone back to valid choices.
func TestRogueSchedulerErrors(t *testing.T) {
	ids := []uint64{3, 1, 4, 2, 5}
	n := len(ids)
	notReady := func(s *sim.Sim[pulse.Pulse], v sim.View) (int, bool) {
		c := queuedNotDeliverable(s, v, func(k int, p pulse.Port) bool { return !s.Machine(k).Ready(p) })
		return c, c >= 0
	}
	cases := []struct {
		name    string
		pick    func(s *sim.Sim[pulse.Pulse], v sim.View) (int, bool)
		initAll bool // false: node 0 is never initialized
		crash   bool // a fault plane crashes one node at its first handler
		want    string
		plain   bool // fault planes exclude the batched path
	}{
		{name: "negative", initAll: true, want: "sim: deliver on empty or invalid channel -1",
			pick: func(*sim.Sim[pulse.Pulse], sim.View) (int, bool) { return -1, true }},
		{name: "beyond", initAll: true, want: fmt.Sprintf("sim: deliver on empty or invalid channel %d", 2*n),
			pick: func(*sim.Sim[pulse.Pulse], sim.View) (int, bool) { return 2 * n, true }},
		{name: "empty", initAll: true, want: "sim: deliver on empty or invalid channel 2",
			pick: func(_ *sim.Sim[pulse.Pulse], v sim.View) (int, bool) { return 2, v.QueueLen(2) == 0 }},
		{name: "not-ready", initAll: true, want: "sim: deliver on non-ready port Port1 of node 0", pick: notReady},
		// A terminated node's queues are always empty under Run (a send
		// toward it fails first), so this choice is rejected as an empty
		// channel; Deliver's ErrPostTerminationSend branch is not reached.
		{name: "terminated-empty", initAll: true, want: "sim: deliver on empty or invalid channel 6",
			pick: func(s *sim.Sim[pulse.Pulse], _ sim.View) (int, bool) {
				for k := 0; k < n; k++ {
					if s.Machine(k).Status().Terminated {
						return 2 * k, true
					}
				}
				return 0, false
			}},
		{name: "uninitialized", want: "sim: deliver to uninitialized node 0",
			pick: func(s *sim.Sim[pulse.Pulse], v sim.View) (int, bool) {
				c := queuedNotDeliverable(s, v, func(k int, _ pulse.Port) bool { return k == 0 })
				return c, c >= 0
			}},
		{name: "crashed", initAll: true, crash: true, plain: true, want: "sim: deliver to crashed node 2",
			pick: func(s *sim.Sim[pulse.Pulse], v sim.View) (int, bool) {
				c := queuedNotDeliverable(s, v, func(k int, p pulse.Port) bool {
					return s.Machine(k).Ready(p) && !s.Machine(k).Status().Terminated
				})
				return c, c >= 0
			}},
	}
	for _, tc := range cases {
		for _, mode := range []string{"plain", "batched", "rescan"} {
			if mode == "batched" && tc.plain {
				continue
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				topo, err := ring.Oriented(n)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := core.Alg2Machines(topo, ids)
				if err != nil {
					t.Fatal(err)
				}
				r := &rogue{pick: tc.pick}
				var opts []sim.Option[pulse.Pulse]
				switch mode {
				case "batched":
					opts = append(opts, sim.WithBatching())
				case "rescan":
					opts = append(opts, sim.WithRescanDeliverable[pulse.Pulse]())
				}
				if tc.crash {
					plane, err := fault.New(1, fault.Config{Nodes: n, Classes: fault.NewSet(fault.Crash), Budget: 1, Horizon: 1})
					if err != nil {
						t.Fatal(err)
					}
					opts = append(opts, sim.WithFaultPlane[pulse.Pulse](plane))
				}
				s, err := sim.New(topo, ms, r, opts...)
				if err != nil {
					t.Fatal(err)
				}
				r.s = s
				for k := 0; k < n; k++ {
					if k == 0 && !tc.initAll {
						continue
					}
					if err := s.InitNode(k); err != nil {
						t.Fatal(err)
					}
				}
				_, err = s.RunDeliveries(1 << 16)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("RunDeliveries error %v, want %q", err, tc.want)
				}
				if _, again := s.Run(1 << 16); !errors.Is(again, err) {
					t.Fatalf("second Run error %v, want the first run's %q", again, tc.want)
				}
			})
		}
	}
}

// TestPickWeightedOutOfContract: PickWeighted answers -1 when there is
// no tree to pick from — before the first DeliverableWeight, and always
// in rescan mode — and for x outside [0, total); Run rejects the -1 as
// an invalid channel instead of panicking.
func TestPickWeightedOutOfContract(t *testing.T) {
	for _, rescan := range []bool{false, true} {
		t.Run(fmt.Sprintf("rescan=%v", rescan), func(t *testing.T) {
			var picks []int
			sched := &rogue{pick: func(_ *sim.Sim[pulse.Pulse], v sim.View) (int, bool) {
				wv := v.(sim.WeightedView)
				picks = append(picks, wv.PickWeighted(0)) // before any DeliverableWeight
				total, ok := wv.DeliverableWeight()
				if ok == rescan {
					t.Fatalf("DeliverableWeight ok = %v in rescan = %v mode", ok, rescan)
				}
				picks = append(picks, wv.PickWeighted(-1), wv.PickWeighted(total), wv.PickWeighted(total+5))
				return picks[0], true
			}}
			topo, err := ring.Oriented(4)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := core.Alg2Machines(topo, []uint64{3, 1, 4, 2})
			if err != nil {
				t.Fatal(err)
			}
			var opts []sim.Option[pulse.Pulse]
			if rescan {
				opts = append(opts, sim.WithRescanDeliverable[pulse.Pulse]())
			}
			s, err := sim.New(topo, ms, sched, opts...)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Run(1 << 10)
			if want := "sim: deliver on empty or invalid channel -1"; err == nil || err.Error() != want {
				t.Fatalf("Run error %v, want %q", err, want)
			}
			for i, c := range picks {
				if c != -1 {
					t.Errorf("pick %d = %d, want -1 (picks %v)", i, c, picks)
				}
			}
		})
	}
}

// viewReader reads every View accessor on every channel id in
// [-1, 2n] before following Canonical: HeadSeq and QueueLen of a
// channel that never held a message, and all three accessors outside
// [0, 2n), must read their zero value instead of panicking.
type viewReader struct {
	t     *testing.T
	n     int
	calls int
}

func (r *viewReader) Next(v sim.View) int {
	r.calls++
	for c := -1; c <= 2*r.n; c++ {
		seq, l, d := v.HeadSeq(c), v.QueueLen(c), v.Direction(c)
		if c < 0 || c == 2*r.n {
			if seq != 0 || l != 0 || d != 0 {
				r.t.Fatalf("channel %d outside [0, %d): HeadSeq %d, QueueLen %d, Direction %d; want zeros", c, 2*r.n, seq, l, d)
			}
			continue
		}
		if l == 0 && seq != 0 {
			r.t.Fatalf("empty channel %d: HeadSeq %d, want 0", c, seq)
		}
	}
	return v.Deliverable()[0]
}

// TestViewReadsNeverPanic: a scheduler may read HeadSeq, QueueLen and
// Direction on any channel id, deliverable or not, on every engine.
func TestViewReadsNeverPanic(t *testing.T) {
	const n = 3
	for _, mode := range []string{"plain", "batched", "rescan"} {
		t.Run(mode, func(t *testing.T) {
			topo, err := ring.Oriented(n)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := core.Alg2Machines(topo, []uint64{2, 3, 1})
			if err != nil {
				t.Fatal(err)
			}
			var opts []sim.Option[pulse.Pulse]
			switch mode {
			case "batched":
				opts = append(opts, sim.WithBatching())
			case "rescan":
				opts = append(opts, sim.WithRescanDeliverable[pulse.Pulse]())
			}
			r := &viewReader{t: t, n: n}
			s, err := sim.New(topo, ms, r, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(1 << 10)
			if err != nil || res.Leader < 0 || r.calls == 0 {
				t.Fatalf("Run: leader %d after %d picks, error %v", res.Leader, r.calls, err)
			}
		})
	}
}
