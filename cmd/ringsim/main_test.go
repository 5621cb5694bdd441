package main

import (
	"errors"
	"strings"
	"testing"
)

// TestBuildRingRejectsOverflowingPrediction: a ring whose predicted pulse
// count does not fit in a uint64 is refused with a *predictionError naming
// n and ID_max, instead of yielding a wrapped prediction (and from it a
// step limit of about a thousand) that the run would then trip.
func TestBuildRingRejectsOverflowingPrediction(t *testing.T) {
	for _, tc := range []struct{ algo, ids, idMax string }{
		{"alg1", "18446744073709551615,1,2", "18446744073709551615"},
		{"alg2", "9223372036854775807,1,2", "9223372036854775807"},
		{"alg3", "9223372036854775808,1,2", "9223372036854775808"},
	} {
		_, _, predicted, err := buildRing(tc.algo, tc.ids, nil)
		var pe *predictionError
		if !errors.As(err, &pe) {
			t.Errorf("%s -ids %s: err = %v (predicted %d), want *predictionError", tc.algo, tc.ids, err, predicted)
			continue
		}
		if pe.n != 3 || !strings.Contains(err.Error(), "n=3") || !strings.Contains(err.Error(), "ID_max="+tc.idMax) {
			t.Errorf("%s: error %q does not name n=3 and ID_max=%s", tc.algo, err, tc.idMax)
		}
	}
	// The largest three-node Algorithm 2 ring whose prediction stays below
	// the saturation value still builds.
	_, _, predicted, err := buildRing("alg2", "3074457345618258601,1,2", nil)
	if err != nil {
		t.Fatalf("representable ring refused: %v", err)
	}
	if want := uint64(18446744073709551609); predicted != want {
		t.Errorf("predicted %d, want %d", predicted, want)
	}
}

// TestStepLimitSaturates: the derived step limit never wraps below the
// prediction it was derived from.
func TestStepLimitSaturates(t *testing.T) {
	for _, tc := range []struct{ predicted, want uint64 }{
		{0, 1024},
		{102, 1432},
		{(18446744073709551615 - 1024) / 4, 18446744073709551612},
		{(18446744073709551615-1024)/4 + 1, 18446744073709551615},
		{18446744073709551614, 18446744073709551615},
	} {
		if got := stepLimit(tc.predicted); got != tc.want {
			t.Errorf("stepLimit(%d) = %d, want %d", tc.predicted, got, tc.want)
		}
	}
}
