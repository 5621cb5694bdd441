package xrand_test

import (
	"math"
	"testing"

	"coleader/internal/xrand"
)

func TestDeterminism(t *testing.T) {
	a, b := xrand.New(7), xrand.New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := xrand.New(8)
	same := 0
	a2 := xrand.New(7)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different seeds coincided %d/100 times", same)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	s := xrand.New(11)
	const n, trials = 10, 100000
	var counts [n]int
	for i := 0; i < trials; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	xrand.New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := xrand.New(13)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v, want ~0.5", mean)
	}
}

func TestGeometric(t *testing.T) {
	s := xrand.New(17)
	const p, trials = 0.75, 200000
	atLeast3 := 0
	for i := 0; i < trials; i++ {
		if s.Geometric(p) >= 3 {
			atLeast3++
		}
	}
	got := float64(atLeast3) / trials
	want := math.Pow(p, 3)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Pr[G >= 3] = %.4f, want %.4f", got, want)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s xrand.SplitMix
	if s.Uint64() == s.Uint64() {
		t.Error("zero-value generator repeats immediately")
	}
}
