package ring_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"coleader/internal/ring"
)

func TestConsecutiveIDs(t *testing.T) {
	ids := ring.ConsecutiveIDs(4)
	want := []uint64{1, 2, 3, 4}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ConsecutiveIDs(4) = %v", ids)
		}
	}
	if err := ring.CheckDistinct(ids); err != nil {
		t.Error(err)
	}
}

func TestPermutedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := ring.PermutedIDs(32, rng)
	if err := ring.CheckDistinct(ids); err != nil {
		t.Error(err)
	}
	if ring.MaxID(ids) != 32 {
		t.Errorf("MaxID = %d, want 32", ring.MaxID(ids))
	}
}

func TestSparseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids, err := ring.SparseIDs(10, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.CheckDistinct(ids); err != nil {
		t.Error(err)
	}
	for _, id := range ids {
		if id < 1 || id > 1000 {
			t.Errorf("ID %d outside [1,1000]", id)
		}
	}
	if _, err := ring.SparseIDs(10, 5, rng); err == nil {
		t.Error("SparseIDs(10, 5) succeeded, want error")
	}
}

func TestAdversarialIDs(t *testing.T) {
	ids, err := ring.AdversarialIDs(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 1000 {
		t.Errorf("node 0 ID = %d, want 1000", ids[0])
	}
	if err := ring.CheckDistinct(ids); err != nil {
		t.Error(err)
	}
	if _, err := ring.AdversarialIDs(10, 5); err == nil {
		t.Error("AdversarialIDs(10, 5) succeeded, want error")
	}
}

func TestDuplicateIDs(t *testing.T) {
	ids, err := ring.DuplicateIDs(6, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxCount := 0
	for _, id := range ids {
		if id == 5 {
			maxCount++
		}
		if id < 1 || id > 5 {
			t.Errorf("ID %d outside [1,5]", id)
		}
	}
	if maxCount != 3 {
		t.Errorf("%d nodes at ID_max, want 3 (ids=%v)", maxCount, ids)
	}
	if _, err := ring.DuplicateIDs(4, 5, 0); err == nil {
		t.Error("dupMax=0 succeeded")
	}
	if _, err := ring.DuplicateIDs(4, 5, 5); err == nil {
		t.Error("dupMax>n succeeded")
	}
	if _, err := ring.DuplicateIDs(4, 1, 2); err == nil {
		t.Error("max=1 with non-max nodes succeeded")
	}
}

func TestMaxIndex(t *testing.T) {
	idx, unique := ring.MaxIndex([]uint64{3, 9, 2})
	if idx != 1 || !unique {
		t.Errorf("MaxIndex = (%d,%t), want (1,true)", idx, unique)
	}
	_, unique = ring.MaxIndex([]uint64{9, 3, 9})
	if unique {
		t.Error("duplicated max reported unique")
	}
}

func TestCheckDistinct(t *testing.T) {
	if err := ring.CheckDistinct([]uint64{1, 2, 3}); err != nil {
		t.Error(err)
	}
	if err := ring.CheckDistinct([]uint64{1, 2, 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := ring.CheckDistinct([]uint64{0, 1}); err == nil {
		t.Error("zero ID accepted")
	}
}

// TestSparseIDsProperty: sparse assignments are always distinct and within
// range.
func TestSparseIDsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		max := uint64(n) + uint64(rng.Intn(1000))
		ids, err := ring.SparseIDs(n, max, rng)
		if err != nil {
			return false
		}
		if ring.CheckDistinct(ids) != nil {
			return false
		}
		return ring.MaxID(ids) <= max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParseIDs(t *testing.T) {
	cases := []struct {
		in   string
		want []uint64
		err  string
	}{
		{in: "3,1,2", want: []uint64{3, 1, 2}},
		{in: " 7 , 0,18446744073709551615", want: []uint64{7, 0, 18446744073709551615}},
		{in: "5", want: []uint64{5}},
		{in: "", err: "empty list"},
		{in: "  ", err: "empty list"},
		{in: "3,,2", err: `bad ID ""`},
		{in: "3,-1", err: `bad ID "-1"`},
		{in: "1,x", err: `bad ID "x"`},
		{in: "18446744073709551616", err: "value out of range"},
	}
	for _, tc := range cases {
		got, err := ring.ParseIDs(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseIDs(%q) = %v, %v; want error containing %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseIDs(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseFlips(t *testing.T) {
	cases := []struct {
		in   string
		want []bool
		err  string
	}{
		{in: "0,1,0", want: []bool{false, true, false}},
		{in: " 1 ,1", want: []bool{true, true}},
		{in: "0", want: []bool{false}},
		{in: "", err: "empty list"},
		{in: "0,2,1", err: `bad port flip "2"`},
		{in: "0,,1", err: `bad port flip ""`},
		{in: "true,0", err: `bad port flip "true"`},
		{in: "01", err: `bad port flip "01"`},
	}
	for _, tc := range cases {
		got, err := ring.ParseFlips(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseFlips(%q) = %v, %v; want error containing %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFlips(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
