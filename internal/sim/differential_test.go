package sim_test

import (
	"fmt"
	"testing"

	"coleader/internal/pulse"
	"coleader/internal/sim"
)

// TestOptimizedMatchesRescanReference is the scheduler-trace differential
// test for the incremental deliverable set: every stock scheduler, across
// seeds and every algorithm instance, must produce an event-for-event
// identical trace (and identical Result) on the optimized simulator and
// on the retained naive-rescan reference (WithRescanDeliverable). The
// reference recomputes the deliverable set by full scan each step and
// disables the scheduler aux heaps, so agreement here is evidence the
// incremental set and heaps change no scheduling decision, only cost.
//
// The differential runs in every engine mode: pointer machines or a flat
// bank, pulse by pulse or with the batch fast path. The pointer,
// pulse-by-pulse mode keeps the bare subtest name.
func TestOptimizedMatchesRescanReference(t *testing.T) {
	modes := []struct {
		name        string
		flat, batch bool
	}{
		{"", false, false},
		{"flat", true, false},
		{"batched", false, true},
		{"flat-batched", true, true},
	}
	for _, inst := range algInstances() {
		for schedName := range sim.Stock(1) {
			for _, seed := range []int64{1, 2, 7} {
				for _, mode := range modes {
					name := fmt.Sprintf("%s/%s/seed=%d", inst.name, schedName, seed)
					if mode.name != "" {
						name += "/" + mode.name
					}
					t.Run(name, func(t *testing.T) {
						var opts []sim.Option[pulse.Pulse]
						if mode.batch {
							opts = append(opts, sim.WithBatching())
						}
						fastEv, fastRes, fastErr := runInstance(t, inst, schedName, seed, mode.flat, opts...)
						opts = append(opts, sim.WithRescanDeliverable[pulse.Pulse]())
						refEv, refRes, refErr := runInstance(t, inst, schedName, seed, mode.flat, opts...)
						compareRuns(t, "optimized", refEv, refRes, refErr, fastEv, fastRes, fastErr)
					})
				}
			}
		}
	}
}
