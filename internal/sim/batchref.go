package sim

import (
	"errors"
	"fmt"
)

// The batched differential's oracle, in two halves:
//
//   - BatchReferenceRun replays the schedule a batched run took — its
//     observer event stream — on a fresh plain pulse-by-pulse Sim,
//     expanding every batch transition into its Count single deliveries
//     of the same channel. The replay re-validates everything the plain
//     engine validates (Ready gating, termination checks, queue
//     occupancy), so it only completes if the batched schedule was an
//     admissible pulse-by-pulse schedule.
//
//   - ExpandBatchEvents expands the batched event stream itself into
//     the per-pulse stream that admissible execution must produce.
//
// The batched differential tests run both and assert the expansion
// equals, event for event, what the replay's observer records — which
// is exactly the claim that every batch transition is equivalent to
// delivering its run pulse by pulse on the plain engine.

// BatchReferenceRun replays a batched run's event schedule on s, which
// must be a freshly constructed plain (non-batched) simulation of the
// same topology and machine bank. EvInit entries become InitNode calls
// and EvDeliver entries become Count (0 meaning 1) consecutive Deliver
// calls on the recorded channel. It returns the replay's Result; the
// caller's observers on s see the expanded pulse-by-pulse events.
func BatchReferenceRun[M any](s *Sim[M], schedule []Event) (Result, error) {
	if s.batch {
		return s.Result(), errors.New("sim: the batch reference must be a plain pulse-by-pulse simulation")
	}
	for i := range schedule {
		ev := &schedule[i]
		switch ev.Kind {
		case EvInit:
			if err := s.InitNode(ev.Node); err != nil {
				return s.Result(), err
			}
		case EvDeliver:
			c := chanID(ev.Node, ev.Port)
			n := ev.Count
			if n == 0 {
				n = 1
			}
			for j := uint64(0); j < n; j++ {
				if err := s.Deliver(c); err != nil {
					return s.Result(), err
				}
			}
		default:
			return s.Result(), fmt.Errorf("sim: unknown event kind %d in batch schedule", ev.Kind)
		}
	}
	return s.Result(), nil
}

// ExpandBatchEvents expands a batched observer stream into the
// pulse-by-pulse stream the equivalent plain execution produces: a
// batch transition of Count pulses becomes Count consecutive
// single-delivery events at steps Step..Step+Count-1, each carrying the
// per-pulse share of the transition's emissions (the BatchMachine
// contract makes multi-pulse transitions emission-uniform, so the share
// is exact), and counted send records become repeated single sends.
// Expanded events have Count 0 everywhere, the plain engine's encoding.
// It fails on streams violating the emission-uniformity contract.
func ExpandBatchEvents(evs []Event) ([]Event, error) {
	out := make([]Event, 0, len(evs))
	for i := range evs {
		ev := &evs[i]
		m := ev.Count
		if m == 0 {
			m = 1
		}
		if m == 1 {
			cp := *ev
			cp.Count = 0
			cp.Sends = expandSends(nil, ev.Sends)
			out = append(out, cp)
			continue
		}
		if len(ev.Sends) > 1 {
			return nil, fmt.Errorf("sim: batch event %d consumed %d pulses but emitted on %d ports", i, m, len(ev.Sends))
		}
		var per uint64
		var rec SendRec
		if len(ev.Sends) == 1 {
			rec = ev.Sends[0]
			n := rec.Count
			if n == 0 {
				n = 1
			}
			if n%m != 0 {
				return nil, fmt.Errorf("sim: batch event %d consumed %d pulses but emitted a non-uniform run of %d", i, m, n)
			}
			per = n / m
			rec.Count = 0
		}
		for j := uint64(0); j < m; j++ {
			cp := *ev
			cp.Count = 0
			cp.Step = ev.Step + j
			cp.Sends = nil
			for r := uint64(0); r < per; r++ {
				cp.Sends = append(cp.Sends, rec)
			}
			out = append(out, cp)
		}
	}
	return out, nil
}

// expandSends appends each record count-many times with the plain
// engine's zero Count.
func expandSends(dst []SendRec, sends []SendRec) []SendRec {
	for _, rec := range sends {
		n := rec.Count
		if n == 0 {
			n = 1
		}
		rec.Count = 0
		for j := uint64(0); j < n; j++ {
			dst = append(dst, rec)
		}
	}
	return dst
}
