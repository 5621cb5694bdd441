package trace_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"coleader/internal/core"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/trace"
)

// TestAlg1InvariantsHoldEverywhere runs Algorithm 1 under every stock
// scheduler with the Lemma 6 / Corollary 14 / Lemma 11 checker attached:
// the run completing without error is the assertion.
func TestAlg1InvariantsHoldEverywhere(t *testing.T) {
	ids := []uint64{4, 9, 2, 7, 5}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	for name, sched := range sim.Stock(3) {
		sched := sched
		t.Run(name, func(t *testing.T) {
			ms, err := core.Alg1Machines(topo, ids)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(topo, ms, sched,
				sim.WithObserver[pulse.Pulse](trace.Alg1Invariants{IDMax: 9}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(10000); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlg1InvariantsDuplicateIDs checks Lemma 6 survival under the
// non-unique assignments of Lemma 16.
func TestAlg1InvariantsDuplicateIDs(t *testing.T) {
	ids, err := ring.DuplicateIDs(6, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg1Machines(topo, ids)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.NewRandom(17),
		sim.WithObserver[pulse.Pulse](trace.Alg1Invariants{IDMax: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
}

// TestAlg2InvariantsHoldEverywhere attaches the Algorithm 2 checker under
// every stock scheduler and random rings.
func TestAlg2InvariantsHoldEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		ids := ring.PermutedIDs(n, rng)
		topo, err := ring.Oriented(n)
		if err != nil {
			t.Fatal(err)
		}
		for name, sched := range sim.Stock(int64(trial)) {
			ms, err := core.Alg2Machines(topo, ids)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(topo, ms, sched,
				sim.WithObserver[pulse.Pulse](trace.Alg2Invariants{IDMax: ring.MaxID(ids)}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(100000); err != nil {
				t.Fatalf("trial %d scheduler %s ids %v: %v", trial, name, ids, err)
			}
		}
	}
}

// TestAlg1CheckerValidatesAlg2CWInstance: Algorithm 2 literally contains
// Algorithm 1 as its clockwise instance (Section 3.2), so the Algorithm 1
// checker applies to Algorithm 2 machines and must hold throughout.
func TestAlg1CheckerValidatesAlg2CWInstance(t *testing.T) {
	topo, err := ring.Oriented(3)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, []uint64{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, ms, sim.NewRandom(2),
		sim.WithObserver[pulse.Pulse](trace.Alg1Invariants{IDMax: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Errorf("Alg1 invariants failed on Alg2's CW instance: %v", err)
	}
}

// TestInvariantCheckerRejectsForeignMachine: machines exposing no counters
// fail loudly instead of being silently skipped.
func TestInvariantCheckerRejectsForeignMachine(t *testing.T) {
	topo, err := ring.Oriented(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(topo, []node.PulseMachine{blankMachine{}}, sim.Canonical{},
		sim.WithObserver[pulse.Pulse](trace.Alg1Invariants{IDMax: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100); err == nil {
		t.Error("checker accepted a counterless machine")
	}
	s2, err := sim.New(topo, []node.PulseMachine{blankMachine{}}, sim.Canonical{},
		sim.WithObserver[pulse.Pulse](trace.Alg2Invariants{IDMax: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(100); err == nil {
		t.Error("Alg2 checker accepted a counterless machine")
	}
}

type blankMachine struct{}

func (blankMachine) Init(node.PulseEmitter)                           {}
func (blankMachine) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (blankMachine) Ready(pulse.Port) bool                            { return true }
func (blankMachine) Status() node.Status                              { return node.Status{} }

// TestRecorder checks that the recorder captures a faithful, renderable
// event log.
func TestRecorder(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithObserver[pulse.Pulse](rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := int(res.Steps)
	if len(rec.Events) != wantEvents {
		t.Errorf("recorded %d events, want %d", len(rec.Events), wantEvents)
	}
	out := rec.String()
	if !strings.Contains(out, "init") || !strings.Contains(out, "deliver") {
		t.Errorf("rendered trace missing inits/deliveries:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != wantEvents {
		t.Errorf("rendered %d lines, want %d", got, wantEvents)
	}
}

// TestRecorderJSON: the machine-readable export round-trips through
// encoding/json with the right event count.
func TestRecorderJSON(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Alg2Machines(topo, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithObserver[pulse.Pulse](rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	doc, err := rec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Events int `json:"events"`
		Log    []struct {
			Kind int `json:"Kind"`
			Node int `json:"Node"`
		} `json:"log"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if parsed.Events != len(rec.Events) || len(parsed.Log) != parsed.Events {
		t.Errorf("envelope events=%d log=%d recorder=%d",
			parsed.Events, len(parsed.Log), len(rec.Events))
	}
}
