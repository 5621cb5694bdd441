package coleader

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coleader/internal/core"
	"coleader/internal/live"
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/ring"
	"coleader/internal/sim"
)

// SchedulerName selects a simulator scheduler: one of "canonical",
// "newest", "random", "roundrobin", "ccw-first", "cw-first", "flaky".
type SchedulerName string

// Stock scheduler names.
const (
	// SchedCanonical delivers in global send order (Definition 21).
	SchedCanonical SchedulerName = "canonical"
	// SchedNewest delivers the most recently sent message first.
	SchedNewest SchedulerName = "newest"
	// SchedRandom delivers a uniformly random in-flight message.
	SchedRandom SchedulerName = "random"
	// SchedRoundRobin cycles fairly through ready channels.
	SchedRoundRobin SchedulerName = "roundrobin"
	// SchedCCWFirst starves the clockwise direction.
	SchedCCWFirst SchedulerName = "ccw-first"
	// SchedCWFirst starves the counterclockwise direction.
	SchedCWFirst SchedulerName = "cw-first"
	// SchedFlaky alternates canonical and random bursts.
	SchedFlaky SchedulerName = "flaky"
	// SchedHashDelay fixes a pseudo-random delay per message at send time.
	SchedHashDelay SchedulerName = "hashdelay"
)

// SchedulerNames lists all stock schedulers in a stable order.
func SchedulerNames() []SchedulerName {
	return []SchedulerName{
		SchedCanonical, SchedNewest, SchedRandom, SchedRoundRobin,
		SchedCCWFirst, SchedCWFirst, SchedFlaky, SchedHashDelay,
	}
}

type config struct {
	seed       int64
	sched      SchedulerName
	liveRun    bool
	timeout    time.Duration
	limit      uint64
	flips      []bool
	randPorts  bool
	scheme     core.IDScheme
	invariants bool
}

const (
	schemeSuccessor = core.SchemeSuccessor
	schemeDoubled   = core.SchemeDoubled
)

// Option configures a run.
type Option func(*config)

// WithSeed seeds every randomized component of the run (scheduler, port
// assignment, ID sampling). Equal seeds give identical runs.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithScheduler selects the simulator's delivery adversary.
func WithScheduler(name SchedulerName) Option { return func(c *config) { c.sched = name } }

// WithLiveRuntime executes on one goroutine per node with real channels
// instead of the deterministic simulator; the Go scheduler supplies the
// asynchrony. The scheduler option is ignored in this mode.
func WithLiveRuntime() Option { return func(c *config) { c.liveRun = true } }

// WithTimeout bounds a live-runtime run (default 10s); a run with d <= 0
// fails with an input error.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithStepLimit bounds the simulator's deliveries (default: 4x the paper's
// predicted pulse count, plus slack).
func WithStepLimit(n uint64) Option { return func(c *config) { c.limit = n } }

// WithPortFlips wires node k with swapped ports when flips[k] is true,
// producing a specific non-oriented ring (only meaningful for
// ElectNonOriented and ElectAnonymous).
func WithPortFlips(flips ...bool) Option {
	return func(c *config) { c.flips = append([]bool(nil), flips...) }
}

// WithRandomPorts wires every node's ports uniformly at random from the
// run's seed.
func WithRandomPorts() Option { return func(c *config) { c.randPorts = true } }

// WithDoubledIDs makes ElectNonOriented use the original virtual-ID scheme
// of Proposition 15 (cost n(4·ID_max-1)) instead of Theorem 2's successor
// scheme (cost n(2·ID_max+1)).
func WithDoubledIDs() Option { return func(c *config) { c.scheme = schemeDoubled } }

// WithInvariantChecks attaches the Lemma 6 family of per-event invariant
// checkers (Algorithms 1 and 2 on the simulator only); any violation
// aborts the run with an error.
func WithInvariantChecks() Option { return func(c *config) { c.invariants = true } }

func buildConfig(n int, opts []Option) config {
	cfg := config{
		seed:    1,
		sched:   SchedRandom,
		timeout: 10 * time.Second,
		scheme:  schemeSuccessor,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func (c config) topology(n int) (ring.Topology, error) {
	switch {
	case c.flips != nil:
		if len(c.flips) != n {
			return ring.Topology{}, fmt.Errorf("coleader: %d port flips for %d nodes", len(c.flips), n)
		}
		return ring.NonOriented(c.flips)
	case c.randPorts:
		return ring.RandomNonOriented(n, rand.New(rand.NewSource(c.seed)))
	default:
		return ring.Oriented(n)
	}
}

func (c config) scheduler() (sim.Scheduler, error) {
	switch c.sched {
	case SchedCanonical:
		return sim.Canonical{}, nil
	case SchedNewest:
		return sim.Newest{}, nil
	case SchedRandom, "":
		return sim.NewRandom(c.seed), nil
	case SchedRoundRobin:
		return sim.NewRoundRobin(), nil
	case SchedCCWFirst:
		return sim.DirBiased{Prefer: pulse.CCW}, nil
	case SchedCWFirst:
		return sim.DirBiased{Prefer: pulse.CW}, nil
	case SchedFlaky:
		return sim.NewLaggy(c.seed), nil
	case SchedHashDelay:
		return sim.NewHashDelay(c.seed), nil
	default:
		return nil, fmt.Errorf("coleader: unknown scheduler %q", c.sched)
	}
}

// stepLimit is the default step budget 4·predicted + 1024, saturating at
// math.MaxUint64 instead of wrapping.
func stepLimit(predicted uint64) uint64 {
	if predicted > (math.MaxUint64-1024)/4 {
		return math.MaxUint64
	}
	return 4*predicted + 1024
}

// run executes machines on the configured runtime and collects the result.
func (c config) run(topo ring.Topology, ms []node.PulseMachine, ids []uint64,
	predicted uint64, obs []sim.Observer[pulse.Pulse]) (Result, error) {

	if c.liveRun {
		res, err := live.Run(topo, ms, live.WithTimeout(c.timeout))
		out := collect(topo.N(), ids, res.Statuses, res.TerminationOrder,
			res.Sent, res.SentCW, res.SentCCW, res.Quiescent, res.AllTerminated, predicted)
		return out, err
	}

	sched, err := c.scheduler()
	if err != nil {
		return Result{}, err
	}
	var simOpts []sim.Option[pulse.Pulse]
	for _, o := range obs {
		simOpts = append(simOpts, sim.WithObserver[pulse.Pulse](o))
	}
	s, err := sim.New(topo, ms, sched, simOpts...)
	if err != nil {
		return Result{}, err
	}
	limit := c.limit
	if limit == 0 {
		if predicted == math.MaxUint64 {
			return Result{}, fmt.Errorf("coleader: the predicted pulse count on n=%d nodes with ID_max=%d overflows uint64, so no default step limit bounds the run (set WithStepLimit)",
				topo.N(), ring.MaxID(ids))
		}
		limit = stepLimit(predicted)
	}
	res, err := s.Run(limit)
	out := collect(topo.N(), ids, res.Statuses, res.TerminationOrder,
		res.Sent, res.SentCW, res.SentCCW, res.Quiescent, res.AllTerminated, predicted)
	return out, err
}
