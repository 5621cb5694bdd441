package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// burst is a scripted batch-capable machine: Init sends one pulse on each
// of initPorts, the first delivered pulse makes it send one pulse on each
// of onPorts in that order, and every later pulse is absorbed. A term
// machine reports Terminated from the start, so it terminates at Init.
type burst struct {
	initPorts, onPorts []pulse.Port
	term, fired        bool
}

func (b *burst) Init(e node.PulseEmitter) {
	for _, p := range b.initPorts {
		e.Send(p, pulse.Pulse{})
	}
}

func (b *burst) OnMsg(_ pulse.Port, _ pulse.Pulse, e node.PulseEmitter) {
	if !b.fired {
		b.fired = true
		for _, p := range b.onPorts {
			e.Send(p, pulse.Pulse{})
		}
	}
}

func (b *burst) OnPulses(p pulse.Port, _ uint64, e node.BatchEmitter) uint64 {
	b.OnMsg(p, pulse.Pulse{}, e)
	return 1
}

func (b *burst) Ready(pulse.Port) bool { return !b.term }
func (b *burst) Status() node.Status   { return node.Status{Terminated: b.term} }

// burstBank is a flat bank of burst machines.
type burstBank []*burst

func (b burstBank) Len() int                        { return len(b) }
func (b burstBank) Init(k int, e node.PulseEmitter) { b[k].Init(e) }
func (b burstBank) Ready(k int, p pulse.Port) bool  { return b[k].Ready(p) }
func (b burstBank) Status(k int) node.Status        { return b[k].Status() }
func (b burstBank) OnMsg(k int, p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	b[k].OnMsg(p, m, e)
}
func (b burstBank) OnPulses(k int, p pulse.Port, n uint64, e node.BatchEmitter) uint64 {
	return b[k].OnPulses(p, n, e)
}

// headRecorder follows Canonical and logs each pick as "channel@HeadSeq".
type headRecorder struct{ log []string }

func (r *headRecorder) Next(v sim.View) int {
	c := sim.Canonical{}.Next(v)
	r.log = append(r.log, fmt.Sprintf("%d@%d", c, v.HeadSeq(c)))
	return c
}

// runBurst runs machines on topo under headRecorder, pulse by pulse or
// batched, with pointer machines or a flat bank. It returns the run's
// result and error, the sends of node 0's delivery events and the
// recorder's log.
func runBurst(t *testing.T, topo ring.Topology, ms []*burst, batch, flat bool) (sim.Result, []sim.SendRec, []string, error) {
	t.Helper()
	var sends []sim.SendRec
	rec := &headRecorder{}
	opts := []sim.Option[pulse.Pulse]{sim.WithObserver[pulse.Pulse](sim.ObserverFunc[pulse.Pulse](
		func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
			if e.Kind == sim.EvDeliver && e.Node == 0 {
				sends = append(sends, e.Sends...)
			}
			return nil
		}))}
	if batch {
		opts = append(opts, sim.WithBatching())
	}
	var s *sim.Sim[pulse.Pulse]
	var err error
	if flat {
		s, err = sim.NewFlat[pulse.Pulse](topo, burstBank(ms), rec, opts...)
	} else {
		machines := make([]node.PulseMachine, len(ms))
		for k, m := range ms {
			machines[k] = m
		}
		s, err = sim.New(topo, machines, rec, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(100)
	if err != nil {
		// Every run error is sticky.
		if _, again := s.Run(100); again == nil || again.Error() != err.Error() {
			t.Errorf("second Run returned %v, want %v", again, err)
		}
	}
	return res, sends, rec.log, err
}

// TestFlushOrderAndAbortPoint pins how a handler's buffered sends reach
// the wire, for a delivery at node 0 that sends CCW, CW, CCW in one call:
// clockwise first and stable within a direction (Event.Sends and the
// HeadSeq numbering), and, toward a terminated node, an abort at that
// send after every earlier one in flush order was counted. Node 1 is
// node 0's clockwise neighbor and node 2 its counterclockwise one; node
// 0's clockwise port is Port0. The figures were recorded with the
// two-pass flush before a lone send went out directly; the pulse-by-pulse
// and the batched flush must both keep them.
func TestFlushOrderAndAbortPoint(t *testing.T) {
	topo, err := ring.NonOriented([]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	cw, ccw := topo.CWPort(0), topo.CCWPort(0)
	if cw != pulse.Port0 {
		t.Fatalf("node 0's clockwise port is %v, want Port0", cw)
	}
	cases := []struct {
		term  int // node terminated at Init, or -1
		err   string
		sends []sim.SendRec
		heads []string
		sent  [3]uint64 // Sent, SentCW, SentCCW
		steps uint64
	}{
		{
			term: -1,
			sends: []sim.SendRec{
				{From: 0, Port: pulse.Port0, Dir: pulse.CW, To: ring.Endpoint{Node: 1, Port: pulse.Port0}},
				{From: 0, Port: pulse.Port1, Dir: pulse.CCW, To: ring.Endpoint{Node: 2, Port: pulse.Port1}},
				{From: 0, Port: pulse.Port1, Dir: pulse.CCW, To: ring.Endpoint{Node: 2, Port: pulse.Port1}},
			},
			heads: []string{"0@1", "2@2", "5@3", "5@4"},
			sent:  [3]uint64{4, 1, 3},
			steps: 7,
		},
		{
			term:  1,
			err:   "sim: message sent to terminated node: node 0 sent CW toward node 1",
			heads: []string{"0@1"},
			sent:  [3]uint64{1, 0, 1},
			steps: 4,
		},
		{
			term:  2,
			err:   "sim: message sent to terminated node: node 0 sent CCW toward node 2",
			heads: []string{"0@1"},
			sent:  [3]uint64{2, 1, 1},
			steps: 4,
		},
	}
	for _, tc := range cases {
		for _, mode := range []struct{ batch, flat bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			t.Run(fmt.Sprintf("term=%d/batch=%v/flat=%v", tc.term, mode.batch, mode.flat), func(t *testing.T) {
				ms := []*burst{
					{onPorts: []pulse.Port{ccw, cw, ccw}},
					{initPorts: []pulse.Port{topo.CCWPort(1)}},
					{},
				}
				if tc.term >= 0 {
					ms[tc.term].term = true
				}
				res, sends, heads, err := runBurst(t, topo, ms, mode.batch, mode.flat)
				if tc.err == "" {
					if err != nil {
						t.Fatal(err)
					}
				} else if err == nil || err.Error() != tc.err || !errors.Is(err, sim.ErrPostTerminationSend) {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				want := tc.sends
				if mode.batch {
					want = append([]sim.SendRec(nil), want...)
					for i := range want {
						want[i].Count = 1
					}
				}
				if !reflect.DeepEqual(sends, want) && len(sends)+len(want) > 0 {
					t.Errorf("Event.Sends = %+v, want %+v", sends, want)
				}
				if !reflect.DeepEqual(heads, tc.heads) {
					t.Errorf("picks = %v, want %v", heads, tc.heads)
				}
				if got := [3]uint64{res.Sent, res.SentCW, res.SentCCW}; got != tc.sent {
					t.Errorf("Sent, SentCW, SentCCW = %v, want %v", got, tc.sent)
				}
				if res.Steps != tc.steps {
					t.Errorf("Steps = %d, want %d", res.Steps, tc.steps)
				}
			})
		}
	}
}

// TestInvalidSendPortFaults: a machine that sends on a port other than
// Port0 and Port1, at Init or in a delivery, ends the run with a sticky
// ErrMachineFault naming the node and the port, and none of that
// handler's sends reaches the wire — pulse by pulse and batched, with
// pointer machines and a flat bank.
func TestInvalidSendPortFaults(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	bad := pulse.Port(2)
	for _, tc := range []struct {
		name string
		ms   func() []*burst
		sent uint64
	}{
		{"init", func() []*burst {
			return []*burst{{initPorts: []pulse.Port{pulse.Port1, bad}}, {}, {}}
		}, 0},
		{"delivery", func() []*burst {
			return []*burst{{onPorts: []pulse.Port{pulse.Port1, bad}}, {initPorts: []pulse.Port{pulse.Port0}}, {}}
		}, 1},
	} {
		for _, mode := range []struct{ batch, flat bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			t.Run(fmt.Sprintf("%s/batch=%v/flat=%v", tc.name, mode.batch, mode.flat), func(t *testing.T) {
				res, _, _, err := runBurst(t, topo, tc.ms(), mode.batch, mode.flat)
				const want = "sim: machine fault: node 0 sent on invalid port 2"
				if err == nil || err.Error() != want || !errors.Is(err, sim.ErrMachineFault) {
					t.Fatalf("err = %v, want %q", err, want)
				}
				if res.Sent != tc.sent {
					t.Errorf("Sent = %d, want %d", res.Sent, tc.sent)
				}
			})
		}
	}
}

// pairEater is a batch machine that takes two queued pulses in one
// OnPulses call and emits runs, a test of the emission-uniformity check;
// it sends nothing otherwise.
type pairEater struct {
	burst
	runs []uint64 // run lengths, on Port1 then Port0
}

func (m *pairEater) OnPulses(_ pulse.Port, k uint64, e node.BatchEmitter) uint64 {
	if k < 2 {
		return k
	}
	for i, n := range m.runs {
		e.SendRun(pulse.Port(1-i), n)
	}
	return 2
}

// TestBatchUniformityErrors pins the errors for a batch transition that
// breaks the BatchMachine emission contract: two pulses consumed, then
// runs on two ports, or one run that is not a multiple of two.
func TestBatchUniformityErrors(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		runs []uint64
		want string
	}{
		{[]uint64{2}, ""},
		{[]uint64{2, 2}, "sim: batch transition of 2 pulses emitted on 2 ports; the BatchMachine contract allows one"},
		{[]uint64{3}, "sim: batch transition of 2 pulses emitted a non-uniform run of 3"},
	} {
		from := &burst{initPorts: []pulse.Port{pulse.Port0, pulse.Port0}}
		ms := []node.PulseMachine{&pairEater{runs: tc.runs}, from, &pairEater{}}
		s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithBatching())
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(100)
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
			t.Errorf("runs %v: err = %v, want %q", tc.runs, err, tc.want)
		}
	}
}
