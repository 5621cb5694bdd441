package sim

import (
	"fmt"

	"coleader/internal/node"
	"coleader/internal/pulse"
)

// The pulse-run batch fast path.
//
// A content-oblivious channel's entire state is its pulse count, so the
// k pulses queued on a channel are one integer — and a machine whose
// transitions are counter arithmetic (node.BatchMachine) can consume a
// run of them in O(1) instead of k scheduler steps. WithBatching turns
// this on: channel queues store counted runs (entry.cnt), the delivery
// loop hands whole runs to OnPulses, and emissions travel as counted
// runs too. This is what breaks the Θ(n·ID_max) delivery wall: the
// pulse totals (Sent, Delivered, SentCW/CCW, Steps) are conserved
// exactly — batching changes how many pulses one transition moves,
// never how many pulses move.
//
// Equivalence: a batched execution realizes the pulse-by-pulse schedule
// obtained by expanding each batch transition into its consumed
// single-pulse deliveries back to back. The sequence numbers the
// batched engine assigns to an emitted run are exactly the numbers the
// expanded execution assigns (the BatchMachine contract makes
// multi-pulse transitions emission-uniform on a single port, so the
// expanded interleaving is per-channel contiguous). BatchReferenceRun
// replays that expanded schedule on a plain sequential simulation, and
// the batched differential tests assert event-for-event equality.
//
// The fast path stays opt-in so the plain sequential engine remains the
// reference implementation everything else is verified against.

// WithBatching enables the pulse-run batch fast path. It is pulse-only
// by construction (the option applies to Sim[pulse.Pulse]); every
// machine must implement node.BatchMachine — a flat bank,
// node.FlatBatchMachine — and the fault plane is rejected (batching is
// model-exact). Construction fails with ErrBatchUnsupported otherwise.
func WithBatching() Option[pulse.Pulse] {
	return func(s *Sim[pulse.Pulse]) { s.batch = true }
}

// setupBatch validates and wires the batch fast path after options ran.
func (s *Sim[M]) setupBatch() error {
	if !s.batch {
		return nil
	}
	if s.plane != nil {
		return fmt.Errorf("%w: the batch fast path is model-exact; fault injection needs the pulse-by-pulse engine", ErrBatchUnsupported)
	}
	bms, fbm, err := resolveBatch[M](s.machines, s.flat)
	if err != nil {
		return err
	}
	s.bms, s.fbm = bms, fbm
	return nil
}

// resolveBatch resolves the batch-capable view of a machine bank:
// either every pointer machine implements node.BatchMachine or the flat
// bank implements node.FlatBatchMachine.
func resolveBatch[M any](machines []node.Machine[M], flat node.FlatMachine[M]) ([]node.BatchMachine, node.FlatBatchMachine, error) {
	if flat != nil {
		fbm, ok := any(flat).(node.FlatBatchMachine)
		if !ok {
			return nil, nil, fmt.Errorf("%w: bank %T does not implement node.FlatBatchMachine", ErrBatchUnsupported, flat)
		}
		return nil, fbm, nil
	}
	bms := make([]node.BatchMachine, len(machines))
	for k, m := range machines {
		bm, ok := any(m).(node.BatchMachine)
		if !ok {
			return nil, nil, fmt.Errorf("%w: machine %d (%T) does not implement node.BatchMachine", ErrBatchUnsupported, k, m)
		}
		bms[k] = bm
	}
	return bms, nil, nil
}

// pendingRun is one buffered counted emission of a batch transition.
type pendingRun struct {
	port pulse.Port
	n    uint64
}

// runEmitter is the node.BatchEmitter handed to OnPulses: it buffers
// counted runs so they take effect atomically when the transition
// returns, mirroring the plain emitter, invalid-port fault included. It
// is reused across transitions (reset by flushRuns), keeping the fast
// path allocation-free.
type runEmitter struct {
	from int
	buf  []pendingRun
	err  error
}

// Send implements node.Emitter: a single pulse is a run of one.
func (e *runEmitter) Send(p pulse.Port, _ pulse.Pulse) { e.SendRun(p, 1) }

// SendRun implements node.BatchEmitter.
func (e *runEmitter) SendRun(p pulse.Port, n uint64) {
	if !p.Valid() {
		if e.err == nil {
			e.err = invalidPort(e.from, p)
		}
		return
	}
	if n == 0 {
		return
	}
	e.buf = append(e.buf, pendingRun{port: p, n: n})
}

// runsUniform reports whether a transition's buffered runs obey the
// BatchMachine emission contract the sequence numbering relies on: a
// transition that consumed more than one pulse must emit on at most one
// port, with a per-pulse-uniform total. Violations are machine bugs; the
// engine aborts (runUniformityError) rather than silently mis-number the
// wire. It is small enough to inline into flushRuns.
func runsUniform(buf []pendingRun, consumed uint64) bool {
	return consumed <= 1 || len(buf) == 0 || len(buf) == 1 && buf[0].n%consumed == 0
}

// runUniformityError is the error for runs that are not runsUniform.
func runUniformityError(buf []pendingRun, consumed uint64) error {
	if len(buf) > 1 {
		return fmt.Errorf("sim: batch transition of %d pulses emitted on %d ports; the BatchMachine contract allows one", consumed, len(buf))
	}
	return fmt.Errorf("sim: batch transition of %d pulses emitted a non-uniform run of %d", consumed, buf[0].n)
}

// enqueueRun places a counted run on channel c traveling dir, assigning
// it the next n global sequence numbers and maintaining the counters
// and the deliverable set — enqueue, vectorized.
func (s *Sim[M]) enqueueRun(c int, n uint64, dir pulse.Direction) {
	var zero M
	q := &s.queues[c]
	wasEmpty := q.n == 0
	s.pool.pushRun(q, entry[M]{seq: s.seq + 1, cnt: n, msg: zero})
	s.seq += n
	s.sent += n
	s.sentDir[dirSlot(dir)] += n
	if wasEmpty {
		s.refreshChan(c)
		return
	}
	if s.deliv.get(c) {
		// Head unchanged; only the count-keyed HeapHeaviest heap
		// re-registers.
		if s.heavy != nil {
			s.heavyPush(c, s.pool.front(q).seq)
		}
		s.reweigh(c, int64(q.tot))
	}
}

// flushRuns is flushSends for a batch transition: clockwise runs first
// (the same Definition 21 tie-break — run emissions of one transition
// are per-channel contiguous, so ordering whole runs orders every
// expanded pulse), and one run directly.
func (s *Sim[M]) flushRuns(from int, consumed uint64, ev *Event) error {
	buf := s.runEm.buf
	s.runEm.buf = buf[:0]
	if err := s.runEm.err; err != nil {
		s.runEm.err = nil
		return err
	}
	if !runsUniform(buf, consumed) {
		return runUniformityError(buf, consumed)
	}
	if len(buf) == 1 {
		return s.sendRun(from, buf[0], ev)
	}
	for _, want := range [2]pulse.Direction{pulse.CW, pulse.CCW} {
		for _, pr := range buf {
			if s.outDir[chanID(from, pr.port)] != want {
				continue
			}
			if err := s.sendRun(from, pr, ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendRun puts one counted run node from emitted on the wire: send,
// vectorized (batched runs have no fault plane).
func (s *Sim[M]) sendRun(from int, pr pendingRun, ev *Event) error {
	out := chanID(from, pr.port)
	dir, c := s.outDir[out], int(s.peerCh[out])
	if s.flags[ChanNode(c)]&nodeTerm != 0 {
		return fmt.Errorf("%w: node %d sent %s toward node %d",
			ErrPostTerminationSend, from, dir, ChanNode(c))
	}
	s.enqueueRun(c, pr.n, dir)
	if ev != nil {
		ev.Sends = append(ev.Sends, SendRec{From: from, Port: pr.port, Dir: dir, To: chanEndpoint(c), Count: pr.n})
	}
	return nil
}

// deliverRun is the batch fast path's Deliver: hand the channel's
// queued pulse count, capped at the budget of steps the limit has left,
// to the receiver's OnPulses, pop what it consumed, and account for the
// consumed pulses as the expanded pulse-by-pulse execution would (step,
// delivered, and sequence numbers all advance by pulse counts, so
// Result totals are engine-invariant). The cap keeps an aborting run's
// step count equal to the plain engine's: the BatchMachine contract
// already admits a run shorter than the queue. Like deliver, it runs
// once RunDeliveries knows c is deliverable.
func (s *Sim[M]) deliverRun(c int, budget uint64) error {
	k, p := ChanNode(c), ChanPort(c)
	avail := min(s.queues[c].tot, budget)
	s.runEm.from = k
	var consumed uint64
	if s.fbm != nil {
		consumed = s.fbm.OnPulses(k, p, avail, &s.runEm)
	} else {
		consumed = s.bms[k].OnPulses(p, avail, &s.runEm)
	}
	if consumed == 0 || consumed > avail {
		return s.fail(fmt.Errorf("sim: batch transition at node %d consumed %d of %d offered pulses", k, consumed, avail))
	}
	s.pool.popPulses(&s.queues[c], consumed)
	s.delivered += consumed
	s.step += consumed
	s.runs++
	if consumed > 1 {
		s.coalesced++
	}
	var ev *Event
	if len(s.obs) > 0 {
		ev = &Event{Kind: EvDeliver, Step: s.step - consumed + 1, Node: k, Port: p,
			Dir: s.chanDir[c], Count: consumed}
	}
	if err := s.flushRuns(k, consumed, ev); err != nil {
		return s.fail(err)
	}
	if err := s.afterHandler(k, ev); err != nil {
		return s.fail(err)
	}
	return nil
}
