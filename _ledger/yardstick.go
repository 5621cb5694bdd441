package main

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
)

// The yardstick measures how fast the machine is right now, so that the
// simulator workloads' op times can be rescaled to one reference speed.
//
// On a shared machine the same op runs up to twice as slow for stretches
// of a fraction of a second to tens of seconds, whatever the program
// does: a run's median lands in whichever phase dominated it, and
// run-to-run spreads of the elect-* workloads' raw wall times exceed any
// useful regression bound. The yardstick is a fixed kernel shaped like
// the simulator's inner loop (a pulse relay on a small ring, picking a
// random deliverable channel from a bitset and dispatching through an
// interface), frozen here so that no change to the repository moves it.
//
// It runs only while the ledger is otherwise idle: right before an op and
// right after it, each time behind a full collection, so the program's
// own CPU or GC load never reaches a sample. Each unit gives the
// machine's speed relative to a nominal machine on which one unit takes
// yardstickNominal; an op's rescaled time is its wall time times the
// median of those speeds, the time the same work takes on the nominal
// machine.
const (
	yardstickNominal = 250 * time.Microsecond
	yardstickUnits   = 4 // on each side of an op
	yardstickRing    = 128
	yardstickSteps   = 1500
)

var yardstickSink atomic.Uint64

type relayer interface{ relay(k, port int) bool }

// yardstick is one kernel instance's working memory, reused across units.
type yardstick struct {
	rho, id []uint32
	queued  []int
	ds      []int
}

func (r *yardstick) relay(k, port int) bool {
	r.rho[2*k+port]++
	return r.rho[2*k+port] < r.id[k]
}

// unit runs one unit of the kernel and returns the machine's speed
// relative to the nominal machine.
func (r *yardstick) unit() float64 {
	const n = yardstickRing
	t0 := time.Now()
	if r.id == nil {
		r.rho, r.id = make([]uint32, 2*n), make([]uint32, n)
		r.queued, r.ds = make([]int, 2*n), make([]int, 0, 2*n)
	}
	var live [2 * n / 64]uint64
	for k := range r.id {
		r.id[k] = uint32(1 + (k*37)%n)
	}
	for c := range r.queued {
		r.rho[c], r.queued[c] = 0, 1
		live[c>>6] |= 1 << (c & 63)
	}
	var rl relayer = r
	x := uint64(0x9e3779b97f4a7c15)
	for step := 0; step < yardstickSteps; step++ {
		ds := r.ds[:0]
		for wi, w := range live {
			for w != 0 {
				ds = append(ds, wi*64+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
		if len(ds) == 0 {
			break
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c := ds[x%uint64(len(ds))]
		if r.queued[c]--; r.queued[c] == 0 {
			live[c>>6] &^= 1 << (c & 63)
		}
		d := (c + 5) % (2 * n)
		if rl.relay(c/2, c&1) {
			d = (c + 2) % (2 * n)
		}
		r.queued[d]++
		live[d>>6] |= 1 << (d & 63)
	}
	yardstickSink.Add(x)
	return float64(yardstickNominal) / float64(time.Since(t0))
}

// edge collects the heap, so no GC work is left running, and appends
// yardstickUnits speed samples to speeds.
func (r *yardstick) edge(speeds []float64) []float64 {
	runtime.GC()
	for range yardstickUnits {
		speeds = append(speeds, r.unit())
	}
	return speeds
}

// rescaledTime runs f between two idle yardstick edges and returns its
// wall time and that time rescaled to the nominal machine.
func rescaledTime(f func()) (wall, rescaled time.Duration) {
	var y yardstick
	speeds := y.edge(make([]float64, 0, 2*yardstickUnits))
	t0 := time.Now()
	f()
	wall = time.Since(t0)
	speeds = y.edge(speeds)
	return wall, time.Duration(float64(wall) * quantile(speeds, 0.5))
}
