package coleader_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"coleader"
)

func TestElectOriented(t *testing.T) {
	ids := []uint64{4, 9, 2, 7}
	res, err := coleader.ElectOriented(ids, coleader.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 || res.LeaderID != 9 {
		t.Errorf("leader = %d (id %d), want 1 (id 9)", res.Leader, res.LeaderID)
	}
	if !res.Terminated || !res.Quiescent {
		t.Errorf("terminated=%t quiescent=%t", res.Terminated, res.Quiescent)
	}
	if res.Pulses != res.Predicted || res.Predicted != 4*(2*9+1) {
		t.Errorf("pulses=%d predicted=%d", res.Pulses, res.Predicted)
	}
	if last := res.TerminationOrder[len(res.TerminationOrder)-1]; last != 1 {
		t.Errorf("leader terminated at position != last (%v)", res.TerminationOrder)
	}
	for k, n := range res.Nodes {
		want := coleader.NonLeader
		if k == 1 {
			want = coleader.Leader
		}
		if n.State != want {
			t.Errorf("node %d state %v, want %v", k, n.State, want)
		}
	}
}

func TestElectOrientedEverySchedulerAndRuntime(t *testing.T) {
	ids := []uint64{3, 8, 1, 6, 2}
	for _, name := range coleader.SchedulerNames() {
		res, err := coleader.ElectOriented(ids, coleader.WithScheduler(name), coleader.WithSeed(5))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Leader != 1 || res.Pulses != res.Predicted {
			t.Errorf("%s: leader=%d pulses=%d predicted=%d", name, res.Leader, res.Pulses, res.Predicted)
		}
	}
	res, err := coleader.ElectOriented(ids, coleader.WithLiveRuntime())
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 || res.Pulses != res.Predicted {
		t.Errorf("live: leader=%d pulses=%d predicted=%d", res.Leader, res.Pulses, res.Predicted)
	}
}

func TestElectOrientedWithInvariantChecks(t *testing.T) {
	if _, err := coleader.ElectOriented([]uint64{2, 5, 1}, coleader.WithInvariantChecks()); err != nil {
		t.Fatal(err)
	}
	if _, err := coleader.ElectOrientedStabilizing([]uint64{2, 5, 1}, coleader.WithInvariantChecks()); err != nil {
		t.Fatal(err)
	}
}

func TestElectOrientedStabilizing(t *testing.T) {
	res, err := coleader.ElectOrientedStabilizing([]uint64{3, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate maxima: two leaders, so no unique leader index.
	if res.Leader != -1 {
		t.Errorf("leader = %d, want -1 for duplicated maximum", res.Leader)
	}
	if res.Terminated {
		t.Error("Algorithm 1 must not terminate")
	}
	if res.Pulses != 3*3 {
		t.Errorf("pulses = %d, want 9", res.Pulses)
	}
}

func TestElectNonOriented(t *testing.T) {
	ids := []uint64{2, 7, 4}
	res, err := coleader.ElectNonOriented(ids,
		coleader.WithPortFlips(true, false, true), coleader.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 {
		t.Errorf("leader = %d, want 1", res.Leader)
	}
	if res.Pulses != res.Predicted || res.Predicted != 3*(2*7+1) {
		t.Errorf("pulses=%d predicted=%d", res.Pulses, res.Predicted)
	}
	for k, n := range res.Nodes {
		if !n.HasOrientation {
			t.Errorf("node %d unoriented", k)
		}
	}
	// Doubled scheme costs more.
	res2, err := coleader.ElectNonOriented(ids,
		coleader.WithPortFlips(true, false, true), coleader.WithDoubledIDs())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pulses != 3*(4*7-1) {
		t.Errorf("doubled pulses = %d, want %d", res2.Pulses, 3*(4*7-1))
	}
}

func TestElectNonOrientedRandomPorts(t *testing.T) {
	ids := []uint64{5, 1, 8, 3, 2, 7}
	for seed := int64(0); seed < 10; seed++ {
		res, err := coleader.ElectNonOriented(ids, coleader.WithRandomPorts(), coleader.WithSeed(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Leader != 2 {
			t.Errorf("seed %d: leader %d, want 2", seed, res.Leader)
		}
	}
}

// TestElectRejectsOverflowingPrediction: a ring whose predicted pulse
// count overflows uint64 has no default step limit, so the simulator run
// is refused up front rather than aborted by a wrapped limit.
func TestElectRejectsOverflowingPrediction(t *testing.T) {
	_, err := coleader.ElectNonOriented([]uint64{1 << 63, 1, 2})
	if err == nil || !strings.Contains(err.Error(), "overflows") || !strings.Contains(err.Error(), "n=3") {
		t.Errorf("ElectNonOriented(2^63, 1, 2) err = %v, want a prediction-overflow error naming n=3", err)
	}
	_, err = coleader.ElectOriented([]uint64{1<<63 - 1, 1, 2})
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("ElectOriented(2^63-1, 1, 2) err = %v, want a prediction-overflow error", err)
	}
}

func TestElectAnonymous(t *testing.T) {
	const n, c = 6, 1.5
	wins, ran := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		opts := []coleader.Option{coleader.WithSeed(seed), coleader.WithRandomPorts()}
		// Skip the geometric sampler's heavy-tail draws: the run costs
		// Theta(n·ID_max) pulses and correctness does not depend on the
		// magnitude (SampleAnonymousIDs is deterministic per seed, so this
		// previews exactly the IDs ElectAnonymous would use).
		ids := coleader.SampleAnonymousIDs(n, c, opts...)
		var idMax uint64
		for _, id := range ids {
			if id > idMax {
				idMax = id
			}
		}
		if coleader.PredictedPulses(n, idMax) > 500000 {
			continue
		}
		ran++
		res, err := coleader.ElectAnonymous(n, c, opts...)
		switch {
		case err == nil:
			if res.Leader < 0 || !res.Quiescent {
				t.Errorf("seed %d: leader=%d quiescent=%t", seed, res.Leader, res.Quiescent)
			}
			wins++
		case errors.Is(err, coleader.ErrNoUniqueLeader):
			// Legitimate w.h.p. failure.
		default:
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if ran < 15 {
		t.Fatalf("only %d/30 draws fit the pulse budget", ran)
	}
	if wins*3 < ran*2 {
		t.Errorf("only %d/%d anonymous elections succeeded", wins, ran)
	}
}

func TestCompute(t *testing.T) {
	ids := []uint64{3, 9, 5, 1}
	inputs := []uint64{7, 2, 11, 4}
	apps := make([]coleader.App, len(ids))
	maxApps := make([]interface{ Result() uint64 }, len(ids))
	for i := range ids {
		a := coleader.NewMaxApp(inputs[i])
		apps[i] = a
		maxApps[i] = a
	}
	res, err := coleader.Compute(ids, apps, coleader.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != 1 {
		t.Errorf("leader = %d, want 1", res.Leader)
	}
	if !res.Terminated || !res.Quiescent {
		t.Errorf("terminated=%t quiescent=%t", res.Terminated, res.Quiescent)
	}
	for k, a := range maxApps {
		if a.Result() != 11 {
			t.Errorf("node %d computed %d, want 11", k, a.Result())
		}
	}
	// Layer indices are clockwise distances from the leader (node 1).
	wantIdx := []int{3, 0, 1, 2}
	if fmt.Sprint(res.Indices) != fmt.Sprint(wantIdx) {
		t.Errorf("indices %v, want %v", res.Indices, wantIdx)
	}
	if res.SetupPulses != 2*16+16 {
		t.Errorf("setup pulses = %d, want %d", res.SetupPulses, 2*16+16)
	}
}

func TestComputeSumAndCR(t *testing.T) {
	ids := []uint64{6, 2, 4}
	sumApps := []*struct{}{}
	_ = sumApps
	apps := []coleader.App{
		coleader.NewSumApp(5), coleader.NewSumApp(8), coleader.NewSumApp(1),
	}
	if _, err := coleader.Compute(ids, apps); err != nil {
		t.Fatal(err)
	}
	for k, a := range apps {
		s := a.(interface{ Result() uint64 })
		if s.Result() != 14 {
			t.Errorf("sum at node %d = %d, want 14", k, s.Result())
		}
	}
	crApps := []coleader.App{
		coleader.NewCRApp(10), coleader.NewCRApp(30), coleader.NewCRApp(20),
	}
	if _, err := coleader.Compute(ids, crApps); err != nil {
		t.Fatal(err)
	}
	if !crApps[1].(interface{ Leader() bool }).Leader() {
		t.Error("CR app at node 1 (id 30) not leader")
	}
}

func TestSolitudePattern(t *testing.T) {
	p, err := coleader.SolitudePattern(3)
	if err != nil {
		t.Fatal(err)
	}
	if p != "0001111" {
		t.Errorf("pattern %q, want 0001111", p)
	}
	if !strings.HasPrefix(p, "000") {
		t.Error("unexpected prefix")
	}
}

func TestBounds(t *testing.T) {
	if got := coleader.LowerBound(4, 64); got != 16 {
		t.Errorf("LowerBound = %d, want 16", got)
	}
	if got := coleader.PredictedPulses(4, 64); got != 4*129 {
		t.Errorf("PredictedPulses = %d, want 516", got)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := coleader.ElectOriented([]uint64{1, 1}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := coleader.ElectOriented([]uint64{2, 3}, coleader.WithScheduler("bogus")); err == nil {
		t.Error("bogus scheduler accepted")
	}
	if _, err := coleader.ElectNonOriented([]uint64{1, 2}, coleader.WithPortFlips(true)); err == nil {
		t.Error("mismatched port flips accepted")
	}
	if _, err := coleader.Compute([]uint64{1}, nil); err == nil {
		t.Error("mismatched apps accepted")
	}
}

// TestLiveTimeoutRejected: a non-positive live-mode timeout is rejected
// with an error naming it, instead of a stall before any node ran.
func TestLiveTimeoutRejected(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		_, err := coleader.ElectOriented([]uint64{4, 9, 2, 7, 5, 1, 8, 3},
			coleader.WithLiveRuntime(), coleader.WithTimeout(d))
		if err == nil || strings.Contains(err.Error(), "unaccounted") || !strings.Contains(err.Error(), d.String()) {
			t.Errorf("timeout %v: err = %v, want an input error naming %v", d, err, d)
		}
	}
}

func ExampleElectOriented() {
	res, err := coleader.ElectOriented([]uint64{4, 9, 2, 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("leader: node %d (ID %d), %d pulses (predicted %d)\n",
		res.Leader, res.LeaderID, res.Pulses, res.Predicted)
	// Output: leader: node 1 (ID 9), 76 pulses (predicted 76)
}
