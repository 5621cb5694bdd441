package check_test

import (
	"fmt"
	"strings"
	"testing"

	"coleader/internal/check"
	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/trace"
)

// unguardedConfig builds the guard-ablated Algorithm 2 exploration, which
// is known (TestAblation... in internal/core) to contain violating
// schedules.
func unguardedConfig(t *testing.T, ids []uint64) check.Config {
	t.Helper()
	topo, err := ring.Oriented(len(ids))
	if err != nil {
		t.Fatal(err)
	}
	return check.Config{
		Topo: topo,
		NewMachines: func() ([]node.PulseMachine, error) {
			ms := make([]node.PulseMachine, len(ids))
			for k := range ms {
				m, err := core.NewAlg2Unguarded(ids[k], topo.CWPort(k))
				if err != nil {
					return nil, err
				}
				ms[k] = m
			}
			return ms, nil
		},
	}
}

// TestWitnessExtractAndReplay: the explorer's counterexample replays in
// the full simulator and reproduces the same violation, with observers
// (here a recorder) attached — the debugging loop the witness exists for.
func TestWitnessExtractAndReplay(t *testing.T) {
	cfg := unguardedConfig(t, []uint64{1, 3})
	_, err := check.Exhaustive(cfg)
	if err == nil {
		t.Fatal("expected a violation from the unguarded ablation")
	}
	steps, ok := check.Witness(err)
	if !ok {
		t.Fatalf("no witness attached to %v", err)
	}
	if len(steps) == 0 {
		t.Fatal("empty witness")
	}
	// The witness must start with the implicit init prefix.
	if steps[0].Init != 0 || steps[1].Init != 1 {
		t.Errorf("witness does not start with init prefix: %v", steps[:2])
	}

	rec := &trace.Recorder{}
	_, replayErr := check.Replay(cfg, steps, rec)
	if replayErr == nil {
		t.Fatal("replaying the violating schedule did not reproduce the violation")
	}
	if len(rec.Events) == 0 {
		t.Error("recorder captured nothing during replay")
	}
	t.Logf("violation reproduced after %d events: %v", len(rec.Events), replayErr)
}

// TestReplayBenignPrefix: replaying a witness minus its final step runs
// clean, pinning the violation to the last event.
func TestReplayBenignPrefix(t *testing.T) {
	cfg := unguardedConfig(t, []uint64{1, 3})
	_, err := check.Exhaustive(cfg)
	steps, ok := check.Witness(err)
	if !ok {
		t.Fatal("no witness")
	}
	if _, err := check.Replay(cfg, steps[:len(steps)-1]); err != nil {
		t.Fatalf("benign prefix failed: %v", err)
	}
}

// TestReplayFullCleanRun: replaying a hand-built complete schedule of the
// CORRECT algorithm reaches the usual verdict.
func TestReplayFullCleanRun(t *testing.T) {
	ids := []uint64{1, 2}
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := check.Config{
		Topo: topo,
		NewMachines: func() ([]node.PulseMachine, error) {
			return core.Alg2Machines(topo, ids)
		},
	}
	// Build a full schedule by running the simulator once under the
	// canonical scheduler and transcribing its deliveries.
	ms, err := cfg.NewMachines()
	if err != nil {
		t.Fatal(err)
	}
	var steps []check.Step
	for k := range ms {
		steps = append(steps, check.Step{Init: k, Chan: -1})
	}
	obs := sim.ObserverFunc[pulse.Pulse](func(e *sim.Event, _ *sim.Sim[pulse.Pulse]) error {
		if e.Kind == sim.EvDeliver {
			steps = append(steps, check.Step{Init: -1, Chan: 2*e.Node + int(e.Port)})
		}
		return nil
	})
	s, err := sim.New(topo, ms, sim.Canonical{}, sim.WithObserver[pulse.Pulse](obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1 << 12); err != nil {
		t.Fatal(err)
	}

	res, err := check.Replay(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 || !res.Quiescent || !res.AllTerminated {
		t.Errorf("replay result: leader=%d quiescent=%t terminated=%t",
			res.Leader, res.Quiescent, res.AllTerminated)
	}
	if res.Sent != core.PredictedAlg2Pulses(2, 2) {
		t.Errorf("replay sent %d pulses", res.Sent)
	}
}

// TestStepString covers the step renderer.
func TestStepString(t *testing.T) {
	if got := (check.Step{Init: 2, Chan: -1}).String(); got != "init 2" {
		t.Errorf("Step.String = %q", got)
	}
	got := (check.Step{Init: -1, Chan: 5}).String()
	if !strings.Contains(got, "ch5") || !strings.Contains(got, "node 2") {
		t.Errorf("Step.String = %q", got)
	}
}

// TestWitnessOnPlainError: Witness on a non-witness error reports absence.
func TestWitnessOnPlainError(t *testing.T) {
	if _, ok := check.Witness(check.ErrStalled); ok {
		t.Error("plain error yielded a witness")
	}
}

// lateSender terminates in Init when quits is set and otherwise sends one
// pulse in Init: on a ring where its clockwise peer quits, that pulse is
// a send toward a terminated node.
type lateSender struct{ quits, terminated bool }

func (l *lateSender) Init(e node.PulseEmitter) {
	if l.quits {
		l.terminated = true
		return
	}
	e.Send(pulse.Port1, pulse.Pulse{})
}

func (l *lateSender) OnMsg(pulse.Port, pulse.Pulse, node.PulseEmitter) {}
func (l *lateSender) Ready(pulse.Port) bool                            { return !l.terminated }
func (l *lateSender) Status() node.Status                              { return node.Status{Terminated: l.terminated} }

func (l *lateSender) SnapshotTo(buf []byte) []byte {
	if l.terminated {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func (l *lateSender) Restore(snap []byte) { l.terminated = snap[0] != 0 }

// TestCleanPathViolationTexts pins the exact error text of a violation on
// a clean (never-injected) path, one per kind, and the text Replay gives
// for its witness. Faulted paths count their violations without
// formatting them; a clean path, in a fault-aware run too, must keep
// naming the node and what it did. The strings were recorded before
// faulted paths stopped formatting.
func TestCleanPathViolationTexts(t *testing.T) {
	topo, err := ring.Oriented(2)
	if err != nil {
		t.Fatal(err)
	}
	late := check.Config{Topo: topo, NewMachines: func() ([]node.PulseMachine, error) {
		return []node.PulseMachine{&lateSender{quits: true}, &lateSender{}}, nil
	}}
	lateInits := late
	lateInits.ExploreInits = true
	eager := check.Config{Topo: topo, NewMachines: func() ([]node.PulseMachine, error) {
		return []node.PulseMachine{&eagerQuitter{}, &eagerQuitter{}}, nil
	}}
	const (
		sentToward = "check: protocol violation: node 1 sent toward terminated node 0\n" +
			"witness schedule (2 steps; replay with check.Replay)"
		sentTowardReplay = "check: replay step 1 (init 1): sim: message sent to terminated node: node 1 sent CW toward node 0"
	)
	cases := []struct {
		name       string
		cfg        check.Config
		want       string
		wantReplay string
	}{
		{name: "alg2-unguarded 1,3", cfg: unguardedConfig(t, []uint64{1, 3}),
			want: "check: protocol violation: node 1 terminated with queued pulses\n" +
				"witness schedule (8 steps; replay with check.Replay)",
			wantReplay: "check: replay step 7 (deliver ch3 (node 1 port 1)): sim: node terminated with pending incoming messages: node 1"},
		{name: "eager-quitter", cfg: eager,
			want: "check: protocol violation: node 0 terminated with queued pulses\n" +
				"witness schedule (3 steps; replay with check.Replay)",
			wantReplay: "check: replay step 2 (deliver ch0 (node 0 port 0)): sim: node terminated with pending incoming messages: node 0"},
		{name: "late-sender", cfg: late, want: sentToward, wantReplay: sentTowardReplay},
		{name: "late-sender explore-inits", cfg: lateInits, want: sentToward, wantReplay: sentTowardReplay},
	}
	plan := fault.Plan{Classes: fault.NewSet(fault.Loss, fault.Crash, fault.Corrupt), Budget: 1}
	for _, tc := range cases {
		for _, faulty := range []bool{false, true} {
			var err error
			if faulty {
				_, err = check.ExhaustiveFaults(tc.cfg, plan)
			} else {
				_, err = check.Exhaustive(tc.cfg)
			}
			name := fmt.Sprintf("%s faults=%t", tc.name, faulty)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: err = %q, want %q", name, err, tc.want)
				continue
			}
			steps, ok := check.Witness(err)
			if !ok {
				t.Errorf("%s: no witness", name)
				continue
			}
			if _, rerr := check.Replay(tc.cfg, steps); rerr == nil || rerr.Error() != tc.wantReplay {
				t.Errorf("%s: replay err = %q, want %q", name, rerr, tc.wantReplay)
			}
		}
	}
}
