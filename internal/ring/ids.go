package ring

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// ErrDuplicateID is returned by CheckDistinct for assignments with repeats.
var ErrDuplicateID = errors.New("ring: duplicate ID")

// ConsecutiveIDs assigns 1..n in clockwise node order: the smallest possible
// ID_max, hence the cheapest executions of the paper's algorithms.
func ConsecutiveIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}

// PermutedIDs assigns a uniformly random permutation of 1..n.
func PermutedIDs(n int, rng *rand.Rand) []uint64 {
	ids := ConsecutiveIDs(n)
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// SparseIDs assigns n distinct IDs drawn uniformly from [1, max]. The paper
// stresses that the ID space is unrestricted (Section 2) and that message
// complexity scales with ID_max, not n (Theorem 4); sparse assignments
// exercise exactly that regime.
func SparseIDs(n int, max uint64, rng *rand.Rand) ([]uint64, error) {
	if uint64(n) > max {
		return nil, fmt.Errorf("ring: cannot draw %d distinct IDs from [1,%d]", n, max)
	}
	seen := make(map[uint64]struct{}, n)
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		id := 1 + uint64(rng.Int63n(int64(max)))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	return ids, nil
}

// AdversarialIDs assigns IDs that maximize ID_max for a given budget: node 0
// gets max and the rest get 1..n-1, the worst case for the upper bounds of
// Theorems 1 and 2 at a fixed ID_max.
func AdversarialIDs(n int, max uint64) ([]uint64, error) {
	if max < uint64(n) {
		return nil, fmt.Errorf("ring: max ID %d < ring size %d", max, n)
	}
	ids := make([]uint64, n)
	ids[0] = max
	for i := 1; i < n; i++ {
		ids[i] = uint64(i)
	}
	return ids, nil
}

// DuplicateIDs builds the non-unique assignments of Lemmas 16 and 17 (and
// Figure 2): dupMax nodes carry ID_max = max and the remaining nodes cycle
// through 1..max-1 (repeating as needed). dupMax must be in [1, n].
func DuplicateIDs(n int, max uint64, dupMax int) ([]uint64, error) {
	switch {
	case dupMax < 1 || dupMax > n:
		return nil, fmt.Errorf("ring: dupMax %d outside [1,%d]", dupMax, n)
	case max < 2 && dupMax < n:
		return nil, fmt.Errorf("ring: max %d leaves no smaller IDs for %d nodes", max, n-dupMax)
	}
	ids := make([]uint64, n)
	// Spread the max-ID holders evenly so that the segments between them
	// (the x_{i,j} walks in the proof of Lemma 17) have varied lengths.
	for i := 0; i < dupMax; i++ {
		ids[i*n/dupMax] = max
	}
	next := uint64(1)
	for i := range ids {
		if ids[i] != 0 {
			continue
		}
		ids[i] = next
		next++
		if next >= max {
			next = 1
		}
	}
	return ids, nil
}

// MaxID returns the largest assigned ID (ID_max in the paper's notation).
func MaxID(ids []uint64) uint64 {
	var max uint64
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	return max
}

// MaxIndex returns the index of the unique node carrying the largest ID,
// and whether that maximum is unique.
func MaxIndex(ids []uint64) (idx int, unique bool) {
	max := MaxID(ids)
	count := 0
	for i, id := range ids {
		if id == max {
			idx = i
			count++
		}
	}
	return idx, count == 1
}

// CheckDistinct verifies that all IDs are positive and pairwise distinct,
// as the unique-ID model of Section 2 requires. It reports the first
// violation in node order. The check sorts a copy, one 8 B/node
// allocation and linear time on the sorted assignments most callers
// pass; only a failing assignment pays for the scan that names the
// violation.
func CheckDistinct(ids []uint64) error {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for i, id := range sorted {
		if id == 0 || i > 0 && id == sorted[i-1] {
			return firstViolation(ids)
		}
	}
	return nil
}

// firstViolation returns CheckDistinct's error for ids, which hold a
// zero or a repeat: whichever comes first in node order, a repeat named
// by its first two occurrences.
func firstViolation(ids []uint64) error {
	seen := make(map[uint64]int, len(ids))
	for i, id := range ids {
		if id == 0 {
			return fmt.Errorf("ring: node %d has ID 0; IDs must be positive", i)
		}
		if j, dup := seen[id]; dup {
			return fmt.Errorf("%w: nodes %d and %d both have ID %d", ErrDuplicateID, j, i, id)
		}
		seen[id] = i
	}
	return nil
}

// ParseIDs parses a comma-separated ID list such as "3,1,2" (spaces
// around entries are ignored). It checks syntax only: whether an ID is
// admissible (positive, distinct) is the consuming algorithm's call.
func ParseIDs(s string) ([]uint64, error) {
	parts, err := splitList(s)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ring: bad ID %q: %w", part, err)
		}
		ids[i] = v
	}
	return ids, nil
}

// ParseFlips parses a comma-separated port-flip list such as "0,1,0",
// the NonOriented input: each entry must be exactly 0 or 1.
func ParseFlips(s string) ([]bool, error) {
	parts, err := splitList(s)
	if err != nil {
		return nil, err
	}
	flips := make([]bool, len(parts))
	for i, part := range parts {
		switch part {
		case "0":
		case "1":
			flips[i] = true
		default:
			return nil, fmt.Errorf("ring: bad port flip %q (want 0 or 1)", part)
		}
	}
	return flips, nil
}

// splitList splits a non-empty comma-separated list into trimmed entries.
func splitList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("ring: empty list")
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts, nil
}
