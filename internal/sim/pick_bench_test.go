package sim

import (
	"fmt"
	"testing"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// parked is a bench machine: Init parks 1..4 pulses on each port and
// nothing ever runs again. Port 1 of odd nodes is never Ready, so a
// quarter of the loaded channels hold pulses without being deliverable.
type parked struct{ k int }

func (m parked) Init(e node.PulseEmitter) {
	for i := 0; i <= m.k%4; i++ {
		e.Send(pulse.Port0, pulse.Pulse{})
		e.Send(pulse.Port1, pulse.Pulse{})
	}
}
func (parked) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (m parked) Ready(p pulse.Port) bool                        { return p == pulse.Port0 || m.k%2 == 0 }
func (parked) Status() node.Status                              { return node.Status{State: node.StateUndecided} }

var pickSink int

// BenchmarkRandomPick times one Random pick over a frozen deliverable
// set: every node initialized, nothing delivered, so each Next sees the
// same channels and weights. "fast" is WeightedView's Fenwick descent
// (the tree is built by an untimed first pick); "rescan" is the
// WithRescanDeliverable reference, where the pick rebuilds Deliverable()
// and sums QueueLen over it.
func BenchmarkRandomPick(b *testing.B) {
	for _, n := range []int{128, 65536} {
		for _, mode := range []string{"fast", "rescan"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				topo, err := ring.Oriented(n)
				if err != nil {
					b.Fatal(err)
				}
				ms := make([]node.PulseMachine, n)
				for k := range ms {
					ms[k] = parked{k: k}
				}
				r := NewRandom(1)
				var opts []Option[pulse.Pulse]
				if mode == "rescan" {
					opts = append(opts, WithRescanDeliverable[pulse.Pulse]())
				}
				s, err := New(topo, ms, r, opts...)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < n; k++ {
					if err := s.InitNode(k); err != nil {
						b.Fatal(err)
					}
				}
				v := view[pulse.Pulse]{s: s}
				pickSink = r.Next(&v)
				if (s.weights != nil) != (mode == "fast") {
					b.Fatalf("%s mode: weighted tree installed = %v", mode, s.weights != nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pickSink = r.Next(&v)
				}
			})
		}
	}
}
