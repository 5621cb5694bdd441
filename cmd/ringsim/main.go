// Command ringsim runs a single content-oblivious leader election and
// reports the outcome, optionally with a full pulse-level trace.
//
// Usage examples:
//
//	ringsim -algo alg2 -ids 4,9,2,7
//	ringsim -algo alg3 -ids 3,1,2 -flips 1,0,1 -sched ccw-first
//	ringsim -algo alg1 -ids 2,5,5 -trace
//	ringsim -algo anonymous -n 8 -c 2 -seed 7
//	ringsim -algo alg2 -ids 1,2,3 -live
//	ringsim -algo alg1 -ids 4,9,2,7 -faults corrupt -fault-budget 2
//	ringsim -algo alg1 -n 1000000 -idgen geometric -flat -batch -sched heaviest
//	ringsim -algo alg2 -n 1000000 -idgen consecutive -flat -batch -sched heaviest
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"coleader"
	"coleader/internal/core"
	"coleader/internal/fault"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
	"coleader/internal/trace"
	"coleader/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ringsim:", err)
		os.Exit(1)
	}
}

func run() error {
	algo := flag.String("algo", "alg2", "algorithm: alg1 | alg2 | alg3 | anonymous")
	idsFlag := flag.String("ids", "", "comma-separated node IDs in clockwise order (alg1/alg2/alg3)")
	flipsFlag := flag.String("flips", "", "comma-separated 0/1 port flips (alg3/anonymous; default oriented)")
	n := flag.Int("n", 8, "ring size (anonymous and scale modes)")
	c := flag.Float64("c", 2, "Algorithm 4 reliability parameter (anonymous, -idgen geometric/alg4)")
	sched := flag.String("sched", "random", "scheduler: canonical | newest | random | roundrobin | ccw-first | cw-first | flaky | hashdelay | heaviest")
	seed := flag.Int64("seed", 1, "seed for randomized components")
	liveRun := flag.Bool("live", false, "run on the goroutine-per-node live runtime")
	doTrace := flag.Bool("trace", false, "print the full event trace (simulator only)")
	diagram := flag.Bool("diagram", false, "print an ASCII space-time diagram (simulator only)")
	jsonOut := flag.Bool("json", false, "with -trace: emit the event log as JSON")
	faults := flag.String("faults", "", "enable seeded fault injection: 'all' or a comma list of loss,dup,spurious,crash,restart,corrupt")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the fault schedule (default: -seed)")
	faultBudget := flag.Int("fault-budget", 1, "number of injections to schedule (with -faults)")
	faultTrigger := flag.String("fault-trigger", "local", "trigger mode for -faults: local (per-entity event ordinals) | window (ring-wide delivery ordinals)")
	heal := flag.String("heal", "", "with -live -faults: supervise crashes and revive nodes (checkpoint | init)")
	flat := flag.Bool("flat", false, "use the flat machine bank (scale mode)")
	batch := flag.Bool("batch", false, "coalesce pulse runs into O(1) batch transitions (scale mode; best with -sched heaviest)")
	idgen := flag.String("idgen", "consecutive", "ID generation for scale-mode runs without -ids: consecutive | geometric | alg4")
	flag.Parse()

	// -flat and -batch select scale mode: the configurations that reach
	// million-node rings. The -batch fast path does the run coalescing
	// measured in EXPERIMENTS.md E15 and E16.
	if *flat || *batch {
		if *liveRun || *doTrace || *diagram || *faults != "" || *flipsFlag != "" {
			return fmt.Errorf("scale mode (-flat/-batch) does not combine with -live/-trace/-diagram/-faults/-flips")
		}
		return runScale(*algo, *idsFlag, *idgen, *n, *c, *sched, *seed, *flat, *batch)
	}

	var flips []bool
	if *flipsFlag != "" {
		var err error
		if flips, err = ring.ParseFlips(*flipsFlag); err != nil {
			return fmt.Errorf("-flips: %w", err)
		}
	}

	if *faults != "" {
		if *doTrace || *diagram {
			return fmt.Errorf("-faults does not combine with -trace/-diagram")
		}
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		var trig fault.TriggerMode
		switch *faultTrigger {
		case "local":
			trig = fault.TriggerLocal
		case "window":
			trig = fault.TriggerWindow
		default:
			return fmt.Errorf("unknown -fault-trigger %q (want local or window)", *faultTrigger)
		}
		if *heal != "" && !*liveRun {
			return fmt.Errorf("-heal requires -live (the simulator has no goroutines to supervise)")
		}
		return runFaulted(*algo, *idsFlag, flips, *sched, *seed,
			*faults, fseed, *faultBudget, trig, *liveRun, *heal)
	}
	if *heal != "" {
		return fmt.Errorf("-heal requires -faults (there is nothing to crash without a fault plane)")
	}

	opts := []coleader.Option{
		coleader.WithSeed(*seed),
		coleader.WithScheduler(coleader.SchedulerName(*sched)),
	}
	if *liveRun {
		opts = append(opts, coleader.WithLiveRuntime())
	}

	if flips != nil {
		opts = append(opts, coleader.WithPortFlips(flips...))
	}

	if *doTrace || *diagram {
		if *liveRun {
			return fmt.Errorf("-trace/-diagram require the deterministic simulator (drop -live)")
		}
		return runTraced(*algo, *idsFlag, flips, *sched, *seed, *diagram, *jsonOut)
	}

	var (
		res coleader.Result
		err error
	)
	switch *algo {
	case "alg1":
		ids, perr := parseIDs(*idsFlag)
		if perr != nil {
			return perr
		}
		res, err = coleader.ElectOrientedStabilizing(ids, opts...)
	case "alg2":
		ids, perr := parseIDs(*idsFlag)
		if perr != nil {
			return perr
		}
		res, err = coleader.ElectOriented(ids, opts...)
	case "alg3":
		ids, perr := parseIDs(*idsFlag)
		if perr != nil {
			return perr
		}
		res, err = coleader.ElectNonOriented(ids, opts...)
	case "anonymous":
		res, err = coleader.ElectAnonymous(*n, *c, opts...)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	report(res)
	return nil
}

// parseIDs parses the -ids flag, which the ID-based algorithms require.
func parseIDs(s string) ([]uint64, error) {
	ids, err := ring.ParseIDs(s)
	if err != nil {
		return nil, fmt.Errorf("-ids (e.g. -ids 4,9,2,7): %w", err)
	}
	return ids, nil
}

func report(res coleader.Result) {
	if res.Leader >= 0 {
		fmt.Printf("leader: node %d (ID %d)\n", res.Leader, res.LeaderID)
	} else {
		fmt.Printf("leader: none unique (leaders among states below)\n")
	}
	fmt.Printf("pulses: %d total (%d cw, %d ccw)", res.Pulses, res.PulsesCW, res.PulsesCCW)
	if res.Predicted > 0 {
		fmt.Printf("  [paper predicts %d]", res.Predicted)
	}
	fmt.Println()
	fmt.Printf("quiescent: %t   terminated: %t\n", res.Quiescent, res.Terminated)
	if len(res.TerminationOrder) > 0 {
		fmt.Printf("termination order: %v\n", res.TerminationOrder)
	}
	for k, nd := range res.Nodes {
		fmt.Printf("  node %d: ID=%d state=%v", k, nd.ID, nd.State)
		if nd.HasOrientation {
			fmt.Printf(" cw-port=%v", nd.CWPort)
		}
		if nd.Terminated {
			fmt.Printf(" terminated")
		}
		fmt.Println()
	}
}

// buildRing constructs the topology and machines for one of the traceable
// deterministic algorithms.
func buildRing(algo, idsFlag string, flips []bool) (ring.Topology, []node.PulseMachine, uint64, error) {
	ids, err := parseIDs(idsFlag)
	if err != nil {
		return ring.Topology{}, nil, 0, err
	}
	var topo ring.Topology
	if flips != nil {
		topo, err = ring.NonOriented(flips)
	} else {
		topo, err = ring.Oriented(len(ids))
	}
	if err != nil {
		return ring.Topology{}, nil, 0, err
	}
	var ms []node.PulseMachine
	var predicted uint64
	switch algo {
	case "alg1":
		ms, err = core.Alg1Machines(topo, ids)
		predicted = core.PredictedAlg1Pulses(len(ids), ring.MaxID(ids))
	case "alg2":
		ms, err = core.Alg2Machines(topo, ids)
		predicted = core.PredictedAlg2Pulses(len(ids), ring.MaxID(ids))
	case "alg3":
		ms, err = core.Alg3Machines(len(ids), ids, core.SchemeSuccessor)
		predicted = core.PredictedAlg3Pulses(len(ids), ring.MaxID(ids), core.SchemeSuccessor)
	default:
		return ring.Topology{}, nil, 0, fmt.Errorf("this mode supports alg1|alg2|alg3, not %q", algo)
	}
	if err != nil {
		return ring.Topology{}, nil, 0, err
	}
	if err := checkPrediction(algo, len(ids), ring.MaxID(ids), predicted); err != nil {
		return ring.Topology{}, nil, 0, err
	}
	return topo, ms, predicted, nil
}

// predictionError reports a ring whose predicted pulse count does not fit
// in a uint64 (the core formulas saturate at math.MaxUint64): no run of it
// could finish, and no step limit derived from the prediction bounds one.
type predictionError struct {
	algo  string
	n     int
	idMax uint64
}

func (e *predictionError) Error() string {
	return fmt.Sprintf("%s on n=%d nodes with ID_max=%d: the predicted pulse count overflows uint64",
		e.algo, e.n, e.idMax)
}

// checkPrediction returns a *predictionError when predicted saturated.
func checkPrediction(algo string, n int, idMax, predicted uint64) error {
	if predicted == math.MaxUint64 {
		return &predictionError{algo: algo, n: n, idMax: idMax}
	}
	return nil
}

// stepLimit is the simulator step budget 4·predicted + 1024, saturating at
// math.MaxUint64 instead of wrapping.
func stepLimit(predicted uint64) uint64 {
	if predicted > (math.MaxUint64-1024)/4 {
		return math.MaxUint64
	}
	return 4*predicted + 1024
}

// runFaulted executes one election under seeded fault injection and prints
// the outcome plus the complete injection log. A faulted run that breaks —
// stalls, circulates forever, or violates the termination discipline — is
// the experiment's result, not a CLI failure, so it is reported inline and
// the command still exits 0. Simulator runs are fully deterministic in
// (-seed, -fault-seed, -faults, -fault-budget); -live runs are not.
func runFaulted(algo, idsFlag string, flips []bool, schedName string, seed int64,
	faultSpec string, faultSeed int64, budget int, trig fault.TriggerMode,
	liveRun bool, heal string) error {
	classes, err := fault.ParseSet(faultSpec)
	if err != nil {
		return err
	}
	topo, ms, predicted, err := buildRing(algo, idsFlag, flips)
	if err != nil {
		return err
	}
	plane, err := fault.New(faultSeed, fault.Config{
		Nodes:   topo.N(),
		Classes: classes,
		Budget:  budget,
		Trigger: trig,
	})
	if err != nil {
		return err
	}

	trigName := "local"
	if trig == fault.TriggerWindow {
		trigName = "window"
	}
	fmt.Printf("fault plane: classes=%s budget=%d seed=%d trigger=%s\n", classes, budget, faultSeed, trigName)
	var (
		sent, sentCW, sentCCW uint64
		leader                int
		quiescent             bool
		runErr                error
	)
	if liveRun {
		opts := []live.Option{live.WithFaultPlane(plane)}
		switch heal {
		case "":
		case "checkpoint":
			opts = append(opts, live.WithSupervisor(live.RestoreCheckpoint))
		case "init":
			opts = append(opts, live.WithSupervisor(live.RestoreInit))
		default:
			return fmt.Errorf("unknown -heal policy %q (want checkpoint or init)", heal)
		}
		res, err := live.Run(topo, ms, opts...)
		sent, sentCW, sentCCW = res.Sent, res.SentCW, res.SentCCW
		leader, quiescent, runErr = res.Leader, res.Quiescent, err
		if len(res.Heals) > 0 {
			fmt.Printf("supervisor heals: %v\n", res.Heals)
		}
		for _, note := range res.Notes {
			fmt.Printf("note [%s]: %s\n", note.Code, note.Detail)
		}
	} else {
		sched, ok := sim.Stock(seed)[schedName]
		if !ok {
			return fmt.Errorf("unknown scheduler %q", schedName)
		}
		s, err := sim.New(topo, ms, sched, sim.WithFaultPlane[pulse.Pulse](plane))
		if err != nil {
			return err
		}
		res, err := s.Run(stepLimit(predicted))
		sent, sentCW, sentCCW = res.Sent, res.SentCW, res.SentCCW
		leader, quiescent, runErr = res.Leader, res.Quiescent, err
	}

	if runErr != nil {
		fmt.Printf("outcome: %v\n", runErr)
		var stall *live.StallError
		if errors.As(runErr, &stall) {
			for _, ns := range stall.Report.Nodes {
				fmt.Printf("  stalled node %d: queued=%v crashed=%t\n", ns.Node, ns.Queued, ns.Crashed)
			}
		}
	} else if leader >= 0 {
		fmt.Printf("outcome: leader node %d, quiescent=%t\n", leader, quiescent)
	} else {
		fmt.Printf("outcome: no unique leader, quiescent=%t\n", quiescent)
	}
	fmt.Printf("pulses: %d total (%d cw, %d ccw)  [fault-free run predicts %d]\n",
		sent, sentCW, sentCCW, predicted)
	fmt.Printf("injections: %d scheduled, %d fired\n", len(plane.Log()), plane.Fired())
	fmt.Print(fault.FormatLog(plane.Log()))
	return nil
}

// runTraced re-runs on the simulator with a recorder attached and prints
// the event log or a space-time diagram. It goes through the internal
// packages directly because tracing is a development feature.
func runTraced(algo, idsFlag string, flips []bool, schedName string, seed int64, diagram, jsonOut bool) error {
	topo, ms, predicted, err := buildRing(algo, idsFlag, flips)
	if err != nil {
		return err
	}
	sched, ok := sim.Stock(seed)[schedName]
	if !ok {
		return fmt.Errorf("unknown scheduler %q", schedName)
	}
	rec := &trace.Recorder{}
	s, err := sim.New(topo, ms, sched, sim.WithObserver[pulse.Pulse](rec))
	if err != nil {
		return err
	}
	res, err := s.Run(stepLimit(predicted))
	if err != nil {
		return err
	}
	switch {
	case diagram:
		fmt.Print(viz.SpaceTime(rec.Events, topo.N()))
		fmt.Println()
		fmt.Print(viz.ChannelLoad(rec.Events, topo.N()))
	case jsonOut:
		doc, err := rec.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
	default:
		fmt.Print(rec.String())
	}
	fmt.Printf("--- %d events, %d pulses (predicted %d), leader %d\n",
		len(rec.Events), res.Sent, predicted, res.Leader)
	return nil
}
