// Command _ledger is the repository's end-to-end benchmark: the election
// ledger. One run measures one workload for a fixed time, checks every
// op's outcome against the paper's exact counts, and prints its metrics,
// the last line being one JSON object:
//
//	go run . -workload elect-pulse -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones a user sees. With
// -trace 1 the run alternates untraced and traced executions of the same
// inputs, checks that their counts agree exactly, and reports per-layer
// metrics from the trace (see layers.go). The workloads are in
// workloads.go.
//
// Times in the result (op_ms_p50, op_ms_p90, work_per_s, setup_s) are
// wall-clock times on census and live-heal. On elect-batch and
// elect-pulse, whose raw wall times swing with the shared machine's
// speed, they are rescaled to a nominal machine by the yardstick
// (yardstick.go); their wall times are printed on the lines above the
// result, prefixed wall_.
//
// The ledger lives in its own module in an underscore directory so that
// the repository's `./...` patterns and oblint's module walk skip it: its
// wall-clock timing is exactly what oblint's det-time check forbids in
// the model code. It drives the system only through public entry points.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up (draws inputs and runs one
// untimed warm-up op); setup_s is their median. The first op of a
// process carries a GC-pacer bias, so the warm-ups also keep it out of
// the timed ops.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: elect-batch, elect-pulse, census or live-heal")
	seed := fs.Int64("seed", 1, "seed the op inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spans := fs.String("spans", "", "traced runs: write the span log as JSON to this file")
	commit := fs.String("commit", "unknown", "commit being measured, printed with the environment")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ledger: unknown workload %q, or bad -seconds or -trace\n", *name)
		return 2
	}
	fmt.Fprintf(stdout, "env: commit=%s go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%d\n",
		*commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), w.name, *seed, *seconds, *trace)

	s := &session{w: w, rng: rand.New(rand.NewSource(*seed)), stderr: stderr}
	dur := time.Duration(*seconds * float64(time.Second))
	var ms []metric
	if *trace == 1 {
		tr := newTracer()
		ms = s.traced(tr, dur)
		if *spans != "" {
			if err := tr.write(*spans); err != nil {
				fmt.Fprintf(stderr, "ledger: %v\n", err)
				return 1
			}
		}
	} else {
		ms = s.untraced(dur)
	}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%s %s = %.6g %s\n", w.name, m.name, m.value, m.unit)
	}
	return report(stdout, s, ms)
}

// metric is one named measurement with its unit. Metrics printed only on
// the human-readable lines (not part of the JSON result) have info set.
type metric struct {
	name  string
	unit  string
	value float64
	info  bool
}

// report prints the result line the benchmark contract defines.
func report(stdout io.Writer, s *session, ms []metric) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.failed == 0, s.attempted, s.failed, map[string]value{}}
	for _, m := range ms {
		if !m.info {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// session is one run of one workload: the seeded input stream, the
// setup phase, and the tally of attempted and failed ops.
type session struct {
	w      workload
	rng    *rand.Rand
	stderr io.Writer

	attempted, failed int
	drawNS            int64
	draws             int
	setup             []float64 // seconds per setup repetition
}

// draw generates the next op's inputs, timing it for ring.setup_ms.
func (s *session) draw() (job, bool) {
	t0 := time.Now()
	j, err := s.w.draw(s.rng)
	s.drawNS += int64(time.Since(t0))
	s.draws++
	if err != nil {
		s.fail(err)
		return job{}, false
	}
	return j, true
}

// op executes j once (traced when tr is non-nil) and checks its outcome.
// A failed check is counted, never fatal.
func (s *session) op(j job, tr *tracer) outcome {
	s.attempted++
	if tr != nil {
		tr.beginOp()
	}
	got, err := j.verify(tr)
	if tr != nil {
		tr.endOp()
	}
	if err != nil {
		s.fail(err)
	}
	return got
}

// timed runs f from a collected heap and returns its wall time and the
// time the result reports: the wall time, rescaled to the nominal machine
// on workloads that rescale. Collecting first makes every op start from
// the same heap state, as a fresh election would, so neither its time nor
// the peak RSS depends on where the previous op left the GC.
func (s *session) timed(f func()) (wall, t time.Duration) {
	if s.w.rescale {
		return rescaledTime(f)
	}
	runtime.GC()
	t0 := time.Now()
	f()
	wall = time.Since(t0)
	return wall, wall
}

func (s *session) timedOp(j job, tr *tracer) (wall, t time.Duration, got outcome) {
	wall, t = s.timed(func() { got = s.op(j, tr) })
	return wall, t, got
}

func (s *session) fail(err error) {
	s.failed++
	if s.failed <= 5 {
		fmt.Fprintf(s.stderr, "ledger: %s: op failed: %v\n", s.w.name, err)
	}
}

// warmUp runs the setup phase: setupReps times, draw inputs and run one
// untimed warm-up op. Each repetition is timed whole.
func (s *session) warmUp() {
	for range setupReps {
		_, t := s.timed(func() {
			if j, ok := s.draw(); ok {
				s.op(j, nil)
			}
		})
		s.setup = append(s.setup, t.Seconds())
	}
}

// untraced measures ops for dur and derives the end-to-end metrics.
func (s *session) untraced(dur time.Duration) []metric {
	s.warmUp()
	var walls, times []float64 // ms
	var total time.Duration
	work := make([]float64, len(s.w.rates))
	start := time.Now()
	for len(times) == 0 || time.Since(start) < dur {
		j, ok := s.draw()
		if !ok {
			break
		}
		wall, t, got := s.timedOp(j, nil)
		walls, times = append(walls, ms(wall)), append(times, ms(t))
		total += t
		for i, r := range s.w.rates {
			work[i] += r.work(got)
		}
	}
	out := []metric{
		{name: "op_ms_p50", unit: "ms", value: quantile(times, 0.5)},
		{name: "op_ms_p90", unit: "ms", value: quantile(times, 0.9)},
		{name: "work_per_s", unit: "1/s", value: work[0] / total.Seconds()},
		{name: "setup_s", unit: "s", value: quantile(s.setup, 0.5)},
		{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()},
	}
	for i, r := range s.w.rates {
		out = append(out, metric{name: r.name, unit: "1/s", value: work[i] / total.Seconds(), info: true})
	}
	if s.w.rescale {
		out = append(out,
			metric{name: "wall_op_ms_p50", unit: "ms", value: quantile(walls, 0.5), info: true},
			metric{name: "wall_op_ms_p90", unit: "ms", value: quantile(walls, 0.9), info: true})
	}
	return append(out,
		metric{name: "ops", unit: "count", value: float64(len(times)), info: true},
		metric{name: "fail_ratio", unit: "ratio", value: float64(s.failed) / float64(s.attempted), info: true})
}

// traced measures pairs of executions of one job for dur, one untraced
// and one traced, alternating which goes first. A pair whose outcomes
// differ is a failed op: tracing must not change the program.
func (s *session) traced(tr *tracer, dur time.Duration) []metric {
	s.warmUp()
	var plain, timed []float64 // ms
	var last outcome
	start := time.Now()
	for i := 0; len(timed) == 0 || time.Since(start) < dur; i++ {
		j, ok := s.draw()
		if !ok {
			break
		}
		var a, b outcome
		var ta, tb time.Duration
		if i%2 == 0 {
			_, ta, a = s.timedOp(j, nil)
			_, tb, b = s.timedOp(j, tr)
		} else {
			_, tb, b = s.timedOp(j, tr)
			_, ta, a = s.timedOp(j, nil)
		}
		if a != b {
			s.fail(fmt.Errorf("traced outcome %+v differs from untraced %+v", b, a))
		}
		plain, timed = append(plain, ms(ta)), append(timed, ms(tb))
		last = b
	}
	if s.w.name == "live-heal" {
		if err := timeLiveConsults(tr); err != nil {
			s.fail(err)
		}
	}
	return layers(tr, last, len(timed), float64(s.drawNS)/float64(s.draws)/1e6,
		quantile(timed, 0.5)/quantile(plain, 0.5))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set size: VmHWM, in KiB.
// getrusage's ru_maxrss would not do, as Linux carries it across execve,
// so it can report the peak of the process that started the ledger.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
