package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"testing"

	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// Tracing must not change the program: on every workload a traced and an
// untraced execution of the same job produce the same counts, and those
// are the pinned expectation.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			j, err := w.draw(rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := j.verify(nil)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			tr := newTracer()
			tr.beginOp()
			traced, err := j.verify(tr)
			tr.endOp()
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if plain != traced {
				t.Fatalf("traced %+v != untraced %+v", traced, plain)
			}
			// The wrappers really sat on the hot path.
			switch w.name {
			case "elect-batch", "elect-pulse":
				if s := tr.total("sched.Next"); s.calls != traced.Transitions {
					t.Errorf("sched.Next tallied %d picks, want %d", s.calls, traced.Transitions)
				}
				if c := tr.total("core.handler"); c.pulses != traced.Delivered {
					t.Errorf("core.handler tallied %d pulses, want %d", c.pulses, traced.Delivered)
				}
			case "census":
				if c := tr.total("check.Check"); c.calls == 0 {
					t.Error("the Check callback was never tallied")
				}
			}
		})
	}
}

// The wrappers keep the optional interfaces the engine depends on, and
// only those.
func TestWrappersForward(t *testing.T) {
	tr := newTracer()
	if _, ok := tr.scheduler(sim.Heaviest{}).(sim.HeapHinted); !ok {
		t.Error("timed Heaviest lost sim.HeapHinted")
	}
	if _, ok := tr.scheduler(sim.NewRandom(1)).(sim.HeapHinted); ok {
		t.Error("timed Random gained sim.HeapHinted")
	}
	var _ node.FlatBatchMachine = timedFlatBank{}
	var m any = timedMachine{}
	if _, ok := m.(node.Undoable); ok {
		t.Error("timedMachine forwards node.Undoable")
	}
	if _, ok := m.(node.Cloneable[pulse.Pulse]); ok {
		t.Error("timedMachine forwards node.Cloneable")
	}
}

// Every rotation of the census ring explores an isomorphic state space,
// so the pinned counts hold whatever rotation the seed picks.
func TestCensusRotationInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full censuses")
	}
	for r := range censusIDs {
		j, err := censusJob(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.verify(nil); err != nil {
			t.Errorf("rotation %d: %v", r, err)
		}
	}
}

// The peak RSS is read from this process's own VmHWM line.
func TestPeakRSS(t *testing.T) {
	if mb := peakRSSMB(); mb <= 0 {
		t.Fatalf("peak RSS %g MB", mb)
	}
}

// A wrong expectation is counted as a failed op, never a panic or an
// abort, and it turns the result line's correct flag off.
func TestWrongExpectationCounted(t *testing.T) {
	w, _ := lookup("elect-pulse")
	draw := w.draw
	w.draw = func(rng *rand.Rand) (job, error) {
		j, err := draw(rng)
		j.want.Sent++
		return j, err
	}
	s := &session{w: w, rng: rand.New(rand.NewSource(1)), stderr: io.Discard}
	ms := s.untraced(1)
	if s.attempted != setupReps+1 || s.failed != s.attempted {
		t.Fatalf("attempted %d, failed %d; want every one of %d ops failed", s.attempted, s.failed, setupReps+1)
	}
	var out bytes.Buffer
	if code := report(&out, s, ms); code != 0 {
		t.Fatalf("report exit %d", code)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	last := strings.TrimSpace(out.String())
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != s.failed || res.Attempted != s.attempted {
		t.Errorf("result line %s", last)
	}
}
