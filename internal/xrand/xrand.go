// Package xrand provides a tiny deterministic PRNG (SplitMix64) whose
// entire state is one word. Unlike math/rand's generators it is cheaply
// read and restored (State/SetState), which is what lets randomized machines
// (core.Alg3Resample) participate in exhaustive schedule exploration: the
// model checker snapshots machine states, and a PRNG inside a machine must
// snapshot with it.
//
// SplitMix64 is statistically strong for simulation purposes and is the
// standard seeder for larger generators; it is emphatically not a
// cryptographic source.
package xrand

import "fmt"

// SplitMix is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; use New for an explicit seed.
type SplitMix struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed int64) *SplitMix { return &SplitMix{state: uint64(seed)} }

// Uint64 returns the next 64 pseudo-random bits.
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Int63n returns a uniform value in [0, n); it panics for n <= 0,
// mirroring math/rand. The modulo bias is below 2^-52 for every n the
// simulations use (n << 2^63) and irrelevant to the statistical tests.
func (s *SplitMix) Int63n(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Int63n(%d)", n))
	}
	return int64(s.Uint64() >> 1 % uint64(n))
}

// Intn returns a uniform value in [0, n); it panics for n <= 0.
func (s *SplitMix) Intn(n int) int { return int(s.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// State returns the generator's full internal state (for state keys).
func (s *SplitMix) State() uint64 { return s.state }

// SetState restores the generator to a state previously read with State
// (the inverse of State; used by node.Undoable machines whose randomness
// must snapshot and restore with the rest of their state).
func (s *SplitMix) SetState(v uint64) { s.state = v }

// Split derives a stream seed from a root seed and a coordinate vector
// (experiment tag, sweep indices, trial index, ...). Each coordinate is
// absorbed through a full SplitMix64 finalization round, so seeds for
// different coordinates are statistically independent no matter how
// regular the coordinates are. Split is pure: parallel sweeps that seed
// trial i from Split(seed, ..., i) produce the same per-trial streams —
// and therefore byte-identical reduced output — regardless of how many
// workers run the trials or how they interleave.
func Split(seed int64, dims ...uint64) int64 {
	x := uint64(seed)
	for _, d := range dims {
		x += 0x9e3779b97f4a7c15
		x ^= d
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

// Geometric returns the number of successive trials with probability p
// that succeed before the first failure: Pr[G >= k] = p^k. It is the
// BitCount distribution of the paper's Algorithm 4.
func (s *SplitMix) Geometric(p float64) int {
	count := 0
	for s.Float64() < p {
		count++
	}
	return count
}
