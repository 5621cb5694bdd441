package ring_test

import (
	"errors"
	"fmt"
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

// TestCheckDistinctErrors pins which violation CheckDistinct reports and
// its exact text: the first one in node order, a zero ID or the second
// occurrence of a repeated ID (named with its first occurrence's node).
func TestCheckDistinctErrors(t *testing.T) {
	cases := []struct {
		name string
		ids  []uint64
		want string // "" for nil
		dup  bool   // whether the error wraps ErrDuplicateID
	}{
		{"empty", nil, "", false},
		{"single", []uint64{7}, "", false},
		{"single zero", []uint64{0}, "ring: node 0 has ID 0; IDs must be positive", false},
		{"zero before duplicate", []uint64{3, 0, 3}, "ring: node 1 has ID 0; IDs must be positive", false},
		{"duplicate before zero", []uint64{3, 3, 0}, "ring: duplicate ID: nodes 0 and 1 both have ID 3", true},
		{"earlier second occurrence wins", []uint64{9, 2, 9, 2}, "ring: duplicate ID: nodes 0 and 2 both have ID 9", true},
		{"nested groups", []uint64{5, 7, 7, 5}, "ring: duplicate ID: nodes 1 and 2 both have ID 7", true},
		{"triple", []uint64{4, 1, 4, 4}, "ring: duplicate ID: nodes 0 and 2 both have ID 4", true},
		{"max uint64 repeated", []uint64{^uint64(0), 1, ^uint64(0)}, "ring: duplicate ID: nodes 0 and 2 both have ID 18446744073709551615", true},
	}
	for _, tc := range cases {
		err := ring.CheckDistinct(tc.ids)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: CheckDistinct(%v) = %v, want nil", tc.name, tc.ids, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: CheckDistinct(%v) = %v, want %q", tc.name, tc.ids, err, tc.want)
		case errors.Is(err, ring.ErrDuplicateID) != tc.dup:
			t.Errorf("%s: errors.Is(%v, ErrDuplicateID) = %v, want %v", tc.name, err, !tc.dup, tc.dup)
		}
	}
}

// naiveCheckDistinct is CheckDistinct's O(n^2) reference: the first
// violation in node order, with the same texts.
func naiveCheckDistinct(ids []uint64) error {
	for i, id := range ids {
		if id == 0 {
			return fmt.Errorf("ring: node %d has ID 0; IDs must be positive", i)
		}
		for j := 0; j < i; j++ {
			if ids[j] == id {
				return fmt.Errorf("%w: nodes %d and %d both have ID %d", ring.ErrDuplicateID, j, i, id)
			}
		}
	}
	return nil
}

// FuzzCheckDistinct compares CheckDistinct with the naive reference. Each
// byte is one ID, so short inputs repeat IDs and hold zeros often; shift
// moves the nonzero IDs up the 64-bit range.
func FuzzCheckDistinct(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(0))
	f.Add([]byte{3, 0, 3}, uint8(5))
	f.Add([]byte{9, 2, 9, 2}, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		ids := make([]uint64, len(data))
		for i, b := range data {
			ids[i] = uint64(b) << (shift % 57)
		}
		got, want := ring.CheckDistinct(ids), naiveCheckDistinct(ids)
		if fmt.Sprint(got) != fmt.Sprint(want) || errors.Is(got, ring.ErrDuplicateID) != errors.Is(want, ring.ErrDuplicateID) {
			t.Fatalf("CheckDistinct(%v) = %v, want %v", ids, got, want)
		}
	})
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
