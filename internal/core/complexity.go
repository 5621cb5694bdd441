package core

import (
	"math"
	"math/bits"
)

// The paper's exact message-complexity formulas. The experiment harness and
// the test suite assert that measured pulse counts equal these values on
// every run, for every scheduler. A count that does not fit in a uint64
// saturates at math.MaxUint64 instead of wrapping, so callers can tell an
// unrepresentable prediction from a small one.

// PredictedAlg1Pulses is the complexity of Algorithm 1 (Corollary 13):
// every node sends and receives exactly ID_max clockwise pulses.
func PredictedAlg1Pulses(n int, idMax uint64) uint64 {
	return saturating(n, 1, idMax, 0)
}

// PredictedAlg2Pulses is Theorem 1's complexity n(2·ID_max + 1): ID_max
// pulses per node in each direction plus the termination pulse's n hops.
func PredictedAlg2Pulses(n int, idMax uint64) uint64 {
	return saturating(n, 2, idMax, 1)
}

// PredictedAlg3Pulses is the complexity of Algorithm 3 under the given
// virtual-ID scheme: n(4·ID_max - 1) for the doubled IDs of Proposition 15
// and n(2·ID_max + 1) for the successor IDs of Theorem 2.
func PredictedAlg3Pulses(n int, idMax uint64, scheme IDScheme) uint64 {
	switch scheme {
	case SchemeDoubled:
		return saturating(n, 4, idMax-1, 3) // 4·ID_max - 1 without underflow for ID_max ≥ 1
	case SchemeSuccessor:
		return saturating(n, 2, idMax, 1)
	default:
		return 0
	}
}

// saturating returns n·(a·x + b), or math.MaxUint64 when the product
// does not fit in a uint64.
func saturating(n int, a, x, b uint64) uint64 {
	hi, ax := bits.Mul64(a, x)
	per, carry := bits.Add64(ax, b, 0)
	if hi != 0 || carry != 0 {
		return math.MaxUint64
	}
	hi, total := bits.Mul64(uint64(n), per)
	if hi != 0 {
		return math.MaxUint64
	}
	return total
}

// LowerBoundPulses is Theorem 20's bound: with k assignable IDs, some
// assignment forces any content-oblivious leader election to send at least
// n·floor(log2(k/n)) pulses. Theorem 4 instantiates k = ID_max.
func LowerBoundPulses(n int, k uint64) uint64 {
	if n < 1 || k < uint64(n) {
		return 0
	}
	ratio := k / uint64(n)
	if ratio == 0 {
		return 0
	}
	return uint64(n) * uint64(bits.Len64(ratio)-1)
}
