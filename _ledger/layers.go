package main

// layers derives the per-layer metrics of a traced run from its span log.
// Counts are per op (every op of a workload does the same work, so they
// repeat exactly); times are wall-clock means over the traced ops, with
// the calibrated cost of tallying subtracted. A layer the workload does
// not load reports zero. The end-to-end metric each layer metric should
// move:
//
//   - sched: pulses_per_s on elect-pulse, transitions_per_s on
//     elect-batch; nothing on census or live-heal.
//   - core: OnMsg moves pulses_per_s on elect-pulse, OnPulses moves
//     transitions_per_s on elect-batch.
//   - sim: self time (the Run span minus its sched and core children)
//     moves the elect-* metrics; new_ms moves op_ms_p50 on elect-batch; a
//     rise in coalescing moves only pulses_per_s on elect-batch.
//   - check: states_per_s, op_ms_p50 and peak_rss_mb on census only.
//   - fault: pulses_per_s on live-heal; elect-* run without a plane.
//   - live: pulses_per_s and op_ms_p90 on live-heal.
//   - ring: setup_s.
//
// A sim step here is one pass of the Run loop: one scheduler pick and
// one handler call.
func layers(tr *tracer, o outcome, ops int, ringMS, overhead float64) []metric {
	per := func(x float64) float64 { return x / float64(ops) }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sched := tr.total("sched.Next")
	core := tr.total("core.handler")
	chk := tr.total("check.Check")
	run := tr.total("sim.Run")
	newSim := tr.total("sim.New")
	explore := tr.total("check.ExhaustiveFaults")
	lv := tr.total("live.Run")
	consult := tr.total("fault.consult")

	// Tallying costs are subtracted where they land: tallyIn inside each
	// tallied call's sum, tallyOut in the enclosing Run span.
	tallies := float64(sched.calls + core.calls)
	self := float64(run.ns-sched.sumNS-core.sumNS) - tallies*tr.tallyOut
	callNS := func(h aggregate) float64 {
		return div(float64(h.sumNS)-float64(h.calls)*tr.tallyIn, float64(h.calls))
	}
	return []metric{
		{name: "sched.picks", unit: "count", value: per(float64(sched.calls))},
		{name: "sched.ns_per_pick", unit: "ns", value: callNS(sched)},
		{name: "core.calls", unit: "count", value: per(float64(core.calls))},
		{name: "core.ns_per_call", unit: "ns", value: callNS(core)},
		{name: "core.pulses_per_call", unit: "pulses/call", value: div(float64(core.pulses), float64(core.calls))},
		{name: "sim.steps", unit: "count", value: float64(o.Steps)},
		{name: "sim.transitions", unit: "count", value: float64(o.Transitions)},
		{name: "sim.coalescing", unit: "count", value: float64(o.Coalesced)},
		{name: "sim.self_ns_per_step", unit: "ns", value: div(self, float64(sched.calls))},
		{name: "sim.allocs_per_pulse", unit: "allocs/pulse", value: div(float64(run.allocs), float64(o.Delivered)*float64(run.n))},
		{name: "sim.bytes_per_pulse", unit: "B/pulse", value: div(float64(run.bytes), float64(o.Delivered)*float64(run.n))},
		{name: "sim.new_ms", unit: "ms", value: div(float64(newSim.ns), float64(newSim.n)) / 1e6},
		{name: "check.states", unit: "count", value: float64(o.States)},
		{name: "check.terminals", unit: "count", value: float64(o.Terminals)},
		{name: "check.injection_edges", unit: "count", value: float64(o.InjectionEdges)},
		{name: "check.violation_edges", unit: "count", value: float64(o.ViolationEdges)},
		{name: "check.max_depth", unit: "count", value: float64(o.MaxDepth)},
		{name: "check.ns_per_state", unit: "ns", value: div(float64(explore.ns), float64(o.States)*float64(explore.n))},
		{name: "check.check_ns", unit: "ns", value: per(float64(chk.sumNS) - float64(chk.calls)*tr.tallyIn)},
		{name: "check.allocs_per_state", unit: "allocs/state", value: div(float64(explore.allocs), float64(o.States)*float64(explore.n))},
		{name: "check.bytes_per_state", unit: "B/state", value: div(float64(explore.bytes), float64(o.States)*float64(explore.n))},
		{name: "fault.fired", unit: "count", value: float64(o.Fired)},
		{name: "fault.ns_per_consult", unit: "ns", value: div(float64(consult.ns), float64(consult.calls))},
		{name: "live.heals", unit: "count", value: float64(o.Heals)},
		{name: "live.allocs_per_pulse", unit: "allocs/pulse", value: div(float64(lv.allocs), float64(o.Delivered)*float64(lv.n))},
		{name: "live.bytes_per_pulse", unit: "B/pulse", value: div(float64(lv.bytes), float64(o.Delivered)*float64(lv.n))},
		{name: "ring.setup_ms", unit: "ms", value: ringMS},
		{name: "trace.overhead_ratio", unit: "ratio", value: overhead},
	}
}
