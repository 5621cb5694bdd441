package core

import (
	"coleader/internal/node"
	"coleader/internal/pulse"
	"coleader/internal/xrand"
)

// Alg3Resample is the Proposition 19 variant of Algorithm 3: whenever a
// node receives a pulse and observes min(rho_0, rho_1) > ID, it replaces
// its ID with a fresh one drawn uniformly from [1, min(rho_0, rho_1) - 1]
// (and rebuilds its virtual IDs accordingly).
//
// By the time the trigger fires, the node has already withheld its one
// pulse per direction, and the new, strictly smaller ID can never match a
// future counter value, so the node relays forever after and the pulse
// totals still stabilize as in Lemma 16. At quiescence every node holds a
// distinct ID with high probability, turning a ring of possibly colliding
// random IDs (Algorithm 4's output) into a uniquely identified one.
//
// The node's private randomness is an xrand.SplitMix, whose one-word state
// snapshots with the machine: Alg3Resample participates in exhaustive
// schedule exploration like the deterministic machines.
type Alg3Resample struct {
	inner Alg3
	rng   xrand.SplitMix
	// resamples counts ID replacements, exposed for experiments.
	resamples int
}

// NewAlg3Resample returns the resampling machine with the node's private
// randomness seeded by seed (its "own source of randomness" in the
// paper's model; distinct nodes must use distinct seeds).
func NewAlg3Resample(id uint64, scheme IDScheme, seed int64) (*Alg3Resample, error) {
	inner, err := NewAlg3(id, scheme)
	if err != nil {
		return nil, err
	}
	return &Alg3Resample{inner: *inner, rng: *xrand.New(seed)}, nil
}

// ID returns the node's current identifier (it may change over the run).
func (a *Alg3Resample) ID() uint64 { return a.inner.id }

// Resamples returns how many times the node replaced its ID.
func (a *Alg3Resample) Resamples() int { return a.resamples }

// Rho returns the pulses received on port p.
func (a *Alg3Resample) Rho(p pulse.Port) uint64 { return a.inner.Rho(p) }

// Init implements node.Machine.
func (a *Alg3Resample) Init(e node.PulseEmitter) { a.inner.Init(e) }

// OnMsg implements node.Machine: Algorithm 3's step, then the
// Proposition 19 resampling rule.
func (a *Alg3Resample) OnMsg(p pulse.Port, m pulse.Pulse, e node.PulseEmitter) {
	a.inner.OnMsg(p, m, e)
	low := a.inner.rho[pulse.Port0]
	if r1 := a.inner.rho[pulse.Port1]; r1 < low {
		low = r1
	}
	if low > a.inner.id {
		// Draw uniformly from [1, low-1]; low > ID >= 1 implies low >= 2,
		// so the range is never empty.
		a.inner.id = 1 + uint64(a.rng.Int63n(int64(low-1)))
		vid, err := a.inner.scheme.virtualIDs(a.inner.id)
		if err != nil {
			panic("core: scheme was validated at construction: " + err.Error())
		}
		a.inner.vid = vid
		a.resamples++
	}
}

// Ready implements node.Machine.
func (a *Alg3Resample) Ready(p pulse.Port) bool { return a.inner.Ready(p) }

// Status implements node.Machine.
func (a *Alg3Resample) Status() node.Status { return a.inner.Status() }

// SnapshotTo implements node.Undoable. Unlike plain Alg3, the resampling
// rule mutates the inner machine's id and virtual IDs, and the PRNG state
// advances with every draw — all of it snapshots here.
func (a *Alg3Resample) SnapshotTo(buf []byte) []byte {
	buf = node.AppendKey64(buf, a.inner.id)
	buf = node.AppendKey64(buf, a.inner.vid[0])
	buf = node.AppendKey64(buf, a.inner.vid[1])
	buf = node.AppendKey64(buf, a.rng.State())
	buf = node.AppendKey64(buf, uint64(a.resamples))
	return a.inner.SnapshotTo(buf)
}

// Restore implements node.Undoable.
func (a *Alg3Resample) Restore(snap []byte) {
	a.inner.id = node.Key64(snap)
	a.inner.vid[0] = node.Key64(snap[8:])
	a.inner.vid[1] = node.Key64(snap[16:])
	a.rng.SetState(node.Key64(snap[24:]))
	a.resamples = int(node.Key64(snap[32:]))
	a.inner.Restore(snap[40:])
}
