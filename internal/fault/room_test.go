package fault_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"coleader/internal/fault"
)

// TestScheduleGoldens pins New's draw, collision bumps included, to the
// schedules it produced when collisions were resolved by rescanning the
// log: a digest over a grid of seeds, ring sizes and budgets, and three
// schedules spelled out (the second collides on almost every draw).
func TestScheduleGoldens(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 39; seed++ {
		for _, n := range []int{1, 3, 7} {
			for _, budget := range []int{1, 5, 60, 400} {
				p, err := fault.New(seed, fault.Config{Nodes: n, Classes: fault.AllClasses, Budget: budget})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprint(h, fault.FormatLog(p.Log()))
			}
		}
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "59e8c804c8117d4a828c548d1674556b40c3b8c637292fdc5537d5968ff5b274"; got != want {
		t.Errorf("schedule grid digest %s, want %s", got, want)
	}

	type entry struct {
		class    fault.Class
		node, ch int
		trigger  uint64
	}
	for _, c := range []struct {
		seed int64
		cfg  fault.Config
		want []entry
	}{
		{7, fault.Config{Nodes: 3, Classes: fault.AllClasses, Budget: 12}, []entry{
			{fault.Crash, 1, -1, 1}, {fault.Spurious, 1, 2, 7}, {fault.Corrupt, 0, -1, 2},
			{fault.Restart, 0, -1, 8}, {fault.Corrupt, 2, -1, 5}, {fault.Spurious, 1, 3, 5},
			{fault.Restart, 0, -1, 4}, {fault.Dup, 1, 2, 6}, {fault.Spurious, 0, 0, 5},
			{fault.Dup, 1, 2, 7}, {fault.Corrupt, 2, -1, 7}, {fault.Restart, 1, -1, 4},
		}},
		{11, fault.Config{Nodes: 1, Classes: fault.NewSet(fault.Crash, fault.Loss), Budget: 9, Horizon: 2}, []entry{
			{fault.Crash, 0, -1, 2}, {fault.Crash, 0, -1, 3}, {fault.Crash, 0, -1, 4},
			{fault.Loss, 0, 1, 2}, {fault.Loss, 0, 1, 1}, {fault.Crash, 0, -1, 1},
			{fault.Loss, 0, 0, 1}, {fault.Crash, 0, -1, 5}, {fault.Crash, 0, -1, 6},
		}},
		{11, fault.Config{Nodes: 6, Classes: fault.NewSet(fault.Crash), Budget: 4}, []entry{
			{fault.Crash, 1, -1, 4}, {fault.Crash, 1, -1, 7}, {fault.Crash, 2, -1, 8}, {fault.Crash, 0, -1, 1},
		}},
	} {
		p, err := fault.New(c.seed, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []entry
		for _, in := range p.Log() {
			got = append(got, entry{in.Class, in.Node, in.Chan, in.Trigger})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("seed %d %+v: schedule\n%v\nwant\n%v", c.seed, c.cfg, got, c.want)
		}
	}
}

// TestNewLargeBudget: drawing a schedule costs near-linear time in its
// budget however often triggers collide. 100,000 crashes on 3 nodes with
// the default horizon of 8 collide on nearly every draw; each node's
// triggers must come out as exactly 1..(its share).
func TestNewLargeBudget(t *testing.T) {
	const nodes, budget = 3, 100_000
	p, err := fault.New(11, fault.Config{Nodes: nodes, Classes: fault.NewSet(fault.Crash), Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	log := p.Log()
	if len(log) != budget {
		t.Fatalf("%d injections, want %d", len(log), budget)
	}
	taken := make([]map[uint64]bool, nodes)
	for k := range taken {
		taken[k] = map[uint64]bool{}
	}
	for _, in := range log {
		if taken[in.Node][in.Trigger] {
			t.Fatalf("node %d trigger %d taken twice", in.Node, in.Trigger)
		}
		taken[in.Node][in.Trigger] = true
	}
	for k, set := range taken {
		for tr := uint64(1); tr <= uint64(len(set)); tr++ {
			if !set[tr] {
				t.Fatalf("node %d: %d triggers taken but %d is free", k, len(set), tr)
			}
		}
	}
}

// event is one entity's run of consecutive local events in a replay.
type event struct {
	kind fault.Kind
	id   int
	run  uint64
}

// firing is one nonzero consult result of a replay.
type firing struct {
	step uint64
	cl   fault.Class
}

// consult takes one event on the entity.
func consult(p *fault.Plane, kind fault.Kind, id int, step uint64) fault.Class {
	switch kind {
	case fault.Sends:
		return p.OnSend(step, id)
	case fault.Deliveries:
		return p.OnDeliver(step, id)
	default:
		return p.OnHandler(step, id)
	}
}

// replay feeds the event stream to p, one consult per event, or with
// batch set as room-bounded skips with a consult wherever the room is 0.
// Steps number the events globally from 1.
func replay(p *fault.Plane, stream []event, batch bool) []firing {
	var out []firing
	step := uint64(0)
	for _, ev := range stream {
		for left := ev.run; left > 0; {
			if room := p.Room(ev.kind, ev.id); batch && room > 0 {
				m := min(room, left)
				p.Skip(ev.kind, ev.id, m)
				step += m
				left -= m
				continue
			}
			step++
			left--
			if cl := consult(p, ev.kind, ev.id, step); cl != 0 {
				out = append(out, firing{step, cl})
			}
		}
	}
	return out
}

// TestRoomSkipEquivalence: a runtime that skips at most Room events and
// consults at room 0 sees exactly what a per-event runtime sees. Random
// seeded and scripted planes in both trigger modes replay one random
// event stream both ways; the returned classes, the logs (Fired, Step),
// every entity's counter and the ring-wide delivery count must agree.
func TestRoomSkipEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fired := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		mode := fault.TriggerMode(trial % 2)
		cfg := fault.Config{
			Nodes:   n,
			Classes: fault.Set(1 + rng.Intn(int(fault.AllClasses))),
			Budget:  rng.Intn(4 * n),
			Horizon: uint64(1 + rng.Intn(40)),
			Trigger: mode,
		}
		build := func() *fault.Plane {
			seed := int64(trial)
			if trial%4 < 2 {
				p, err := fault.New(seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			// Scripted: every class at once, triggers deep and shallow.
			srng := rand.New(rand.NewSource(seed))
			var sched []fault.Injection
			used := map[[3]uint64]bool{}
			for i := 0; i < 3*n; i++ {
				in := fault.Injection{Class: fault.Class(1 + srng.Intn(6)), Trigger: uint64(1 + srng.Intn(60))}
				in.Chan, in.Node = srng.Intn(2*n), srng.Intn(n)
				dom, target := uint64(2), uint64(in.Node)
				switch in.Class {
				case fault.Loss, fault.Dup:
					dom, target = 0, uint64(in.Chan)
				case fault.Spurious:
					dom, target = 1, uint64(in.Chan)
				}
				if key := [3]uint64{dom, target, in.Trigger}; !used[key] {
					used[key] = true
					sched = append(sched, in)
				}
			}
			p, err := fault.Scripted(fault.Config{Nodes: n, Classes: fault.AllClasses, Trigger: mode}, sched)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		var stream []event
		for i := 0; i < 60; i++ {
			ev := event{kind: fault.Kind(rng.Intn(3)), run: uint64(1 + rng.Intn(12))}
			if ev.kind == fault.Handlers {
				ev.id = rng.Intn(n)
			} else {
				ev.id = rng.Intn(2 * n)
			}
			stream = append(stream, ev)
		}

		each, batched := build(), build()
		wantFired := replay(each, stream, false)
		gotFired := replay(batched, stream, true)
		if !reflect.DeepEqual(gotFired, wantFired) {
			t.Fatalf("trial %d (%+v): batched replay returned %v, per-event %v", trial, cfg, gotFired, wantFired)
		}
		if !reflect.DeepEqual(batched.Log(), each.Log()) {
			t.Fatalf("trial %d: logs differ:\n%s\nvs\n%s", trial,
				fault.FormatLog(batched.Log()), fault.FormatLog(each.Log()))
		}
		for kind, size := range map[fault.Kind]int{fault.Sends: 2 * n, fault.Deliveries: 2 * n, fault.Handlers: n} {
			for id := 0; id < size; id++ {
				if got, want := batched.Count(kind, id), each.Count(kind, id); got != want {
					t.Fatalf("trial %d: kind %d counter %d = %d, per-event %d", trial, kind, id, got, want)
				}
			}
		}
		if got, want := batched.WindowCount(), each.WindowCount(); got != want {
			t.Fatalf("trial %d: ring-wide deliveries %d, per-event %d", trial, got, want)
		}
		fired += len(wantFired)
	}
	if fired < 1000 {
		t.Errorf("only %d injections fired over all trials; the streams are too short to test the skips", fired)
	}
}

// TestRoom pins Room's three regimes and Skip's guard.
func TestRoom(t *testing.T) {
	sched := []fault.Injection{{Class: fault.Crash, Node: 0, Trigger: 5}}
	local, err := fault.Scripted(fault.Config{Nodes: 2, Classes: fault.AllClasses}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got := local.Room(fault.Handlers, 1); got != math.MaxUint64 {
		t.Errorf("room with nothing pending = %d, want MaxUint64", got)
	}
	if got := local.Room(fault.Handlers, 0); got != 4 {
		t.Errorf("room before trigger 5 = %d, want 4", got)
	}
	local.Skip(fault.Handlers, 0, 4)
	if got := local.Room(fault.Handlers, 0); got != 0 {
		t.Errorf("room at the trigger = %d, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Skip past the trigger did not panic")
			}
		}()
		local.Skip(fault.Handlers, 0, 1)
	}()
	if local.OnHandler(0, 0) != fault.Crash {
		t.Error("crash did not fire at its trigger after a skip")
	}
	if got := local.Room(fault.Handlers, 0); got != math.MaxUint64 {
		t.Errorf("room after the last injection fired = %d, want MaxUint64", got)
	}

	window, err := fault.Scripted(fault.Config{Nodes: 2, Classes: fault.AllClasses, Trigger: fault.TriggerWindow}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got := window.Room(fault.Handlers, 0); got != 0 {
		t.Errorf("window-mode room with a pending injection = %d, want 0", got)
	}
	window.Skip(fault.Deliveries, 3, 5)
	if got := window.WindowCount(); got != 5 {
		t.Errorf("skipped deliveries advanced the window to %d, want 5", got)
	}
	if window.OnHandler(0, 0) != fault.Crash {
		t.Error("window-mode crash did not fire once skipped deliveries opened its window")
	}
}
