package core_test

import (
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
)

// discard is a BatchEmitter that drops every send, so the benchmark
// times the machine and not a runtime's wire.
type discard struct{}

func (discard) Send(pulse.Port, pulse.Pulse) {}
func (discard) SendRun(pulse.Port, uint64)   {}

// transitionRun is the run length of the OnPulses cases.
const transitionRun = 16

// BenchmarkTransition times one machine transition as the engines make
// it: one OnMsg, or one OnPulses of a 16-pulse run, through the node
// interfaces, then the Status read every engine makes after a handler.
// Each case feeds clockwise pulses to a node whose ID (2⁴⁰) no run in the
// benchmark reaches, so every pulse is relayed and no threshold is
// crossed: Algorithms 1–3 as pointer machines, and slot 0 of a FlatAlg2
// bank.
func BenchmarkTransition(b *testing.B) {
	const id = 1 << 40
	topo, err := ring.Oriented(2)
	if err != nil {
		b.Fatal(err)
	}
	in := topo.CCWPort(0) // clockwise pulses arrive on the counterclockwise port
	a1, err := core.NewAlg1(id, topo.CWPort(0))
	if err != nil {
		b.Fatal(err)
	}
	a2, err := core.NewAlg2(id, topo.CWPort(0))
	if err != nil {
		b.Fatal(err)
	}
	a3, err := core.NewAlg3(id, core.SchemeSuccessor)
	if err != nil {
		b.Fatal(err)
	}
	var e node.BatchEmitter = discard{}
	for _, m := range []struct {
		name string
		m    node.BatchMachine
	}{{"alg1", a1}, {"alg2", a2}, {"alg3", a3}} {
		b.Run(m.name+"/OnMsg", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.m.OnMsg(in, pulse.Pulse{}, e)
				if st := m.m.Status(); st.Err != nil || st.Terminated {
					b.Fatalf("status %+v", st)
				}
			}
		})
		b.Run(m.name+"/OnPulses", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := m.m.OnPulses(in, transitionRun, e); got != transitionRun {
					b.Fatalf("consumed %d of %d", got, transitionRun)
				}
				if st := m.m.Status(); st.Err != nil || st.Terminated {
					b.Fatalf("status %+v", st)
				}
			}
		})
	}
	bank, err := core.NewFlatAlg2(topo, []uint64{id, id - 1})
	if err != nil {
		b.Fatal(err)
	}
	var fb node.FlatBatchMachine = bank
	b.Run("flat-alg2/OnMsg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fb.OnMsg(0, in, pulse.Pulse{}, e)
			if st := fb.Status(0); st.Err != nil || st.Terminated {
				b.Fatalf("status %+v", st)
			}
		}
	})
	b.Run("flat-alg2/OnPulses", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := fb.OnPulses(0, in, transitionRun, e); got != transitionRun {
				b.Fatalf("consumed %d of %d", got, transitionRun)
			}
			if st := fb.Status(0); st.Err != nil || st.Terminated {
				b.Fatalf("status %+v", st)
			}
		}
	})
}
