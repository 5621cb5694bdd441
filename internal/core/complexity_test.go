package core_test

import (
	"math"
	"testing"

	"coleader/internal/core"
)

// TestPredictedPulsesSaturate pins the complexity formulas at the uint64
// boundary: the largest counts that fit are exact, and one ID past them
// the prediction saturates at math.MaxUint64 instead of wrapping to a
// small number that a caller would mistake for a feasible run.
func TestPredictedPulsesSaturate(t *testing.T) {
	const max = math.MaxUint64
	alg1 := func(n int, id uint64) uint64 { return core.PredictedAlg1Pulses(n, id) }
	alg2 := func(n int, id uint64) uint64 { return core.PredictedAlg2Pulses(n, id) }
	succ := func(n int, id uint64) uint64 { return core.PredictedAlg3Pulses(n, id, core.SchemeSuccessor) }
	dbl := func(n int, id uint64) uint64 { return core.PredictedAlg3Pulses(n, id, core.SchemeDoubled) }
	for _, tc := range []struct {
		name string
		f    func(int, uint64) uint64
		n    int
		id   uint64
		want uint64
	}{
		{"alg1 small", alg1, 5, 9, 45},
		{"alg1 n=1 max id", alg1, 1, max, max},
		{"alg1 last fit", alg1, 2, max / 2, max - 1},
		{"alg1 first overflow", alg1, 2, max/2 + 1, max},
		{"alg2 small", alg2, 6, 8, 102},
		{"alg2 n=1 last fit", alg2, 1, 1<<63 - 1, max},
		{"alg2 n=1 per-node overflow", alg2, 1, 1 << 63, max},
		{"alg2 n=2 last fit", alg2, 2, 1<<62 - 1, max - 1},
		{"alg2 n=2 first overflow", alg2, 2, 1 << 62, max},
		{"alg2 n=3 wraps at 1<<63-1", alg2, 3, 1<<63 - 1, max},
		{"alg3 successor small", succ, 4, 3, 28},
		{"alg3 successor n=3 wraps at 1<<63", succ, 3, 1 << 63, max},
		{"alg3 doubled small", dbl, 5, 3, 55},
		{"alg3 doubled n=1 last fit", dbl, 1, 1 << 62, max},
		{"alg3 doubled n=1 per-node overflow", dbl, 1, 1<<62 + 1, max},
		{"alg3 doubled n=4 last fit", dbl, 4, 1 << 60, max - 3},
		{"alg3 doubled n=4 first overflow", dbl, 4, 1<<60 + 1, max},
	} {
		if got := tc.f(tc.n, tc.id); got != tc.want {
			t.Errorf("%s: n=%d ID_max=%d predicts %d, want %d", tc.name, tc.n, tc.id, got, tc.want)
		}
	}
	if got := core.PredictedAlg3Pulses(3, 5, core.IDScheme(99)); got != 0 {
		t.Errorf("unknown scheme predicts %d, want 0", got)
	}
}
