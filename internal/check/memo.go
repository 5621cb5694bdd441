package check

import (
	"fmt"
	"sync"

	"coleader/internal/node"
)

// MemoMode selects the visited-set representation of an exploration.
type MemoMode uint8

// Visited-set representations.
const (
	// MemoFingerprint (the default) stores 64-bit state fingerprints in
	// an open-addressing table and never builds a state key. The
	// fingerprint is a sum of per-component hashes (one per machine, one
	// per queued pulse, one per init bit) that the undo stepper keeps
	// current as it steps, plus a per-state hash of the fault section
	// (see stateFingerprint). This cuts the dominant memo-table
	// allocation (one string copy per distinct state) and the per-visit
	// key encoding to nothing, at the theoretical cost of fingerprint
	// collisions silently merging two distinct states. Treating each
	// state's fingerprint as a uniform 64-bit value, k distinct states
	// collide with probability about k²/2⁶⁵, i.e. ~3·10⁻⁸ for a million
	// states; the sum is not a universal hash, so that figure is a
	// model, and MemoAudit is what certifies a given instance. The
	// hash is fixed (no per-process seed), so any collision is at least
	// deterministic and reproducible under MemoAudit.
	MemoFingerprint MemoMode = iota

	// MemoFullKeys stores the full binary keys: exact, allocation-heavy.
	MemoFullKeys

	// MemoAudit stores fingerprints AND full keys, and fails the
	// exploration loudly (ErrFingerprintCollision) if two distinct keys
	// ever share a fingerprint. Use it to certify a MemoFingerprint run.
	MemoAudit
)

// keyed reports whether the mode's table needs the full state key beside
// the fingerprint; MemoFingerprint runs never build one.
func (m MemoMode) keyed() bool { return m != MemoFingerprint }

// String names the mode.
func (m MemoMode) String() string {
	switch m {
	case MemoFingerprint:
		return "fingerprint"
	case MemoFullKeys:
		return "full-keys"
	case MemoAudit:
		return "audit"
	default:
		return "memo?"
	}
}

// fingerprint hashes a byte string — one machine's snapshot, or the fault
// section's (see Component hashing below) — 8 bytes at a time: each 64-bit
// word is xored into the running hash and scrambled through the SplitMix64
// finalizer (a bijection, so no word-level information is discarded), with
// the key length folded into the initial value to separate prefixes.
// Word-at-a-time mixing is what keeps hashing off the exploration profile;
// byte-at-a-time FNV-1a measured ~40% of total exploration time.
//
// Deliberately unseeded: explorations must be reproducible run to run, so
// a colliding pair of states collides every time (and MemoAudit can prove
// it).
func fingerprint(b []byte) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(b))*0xff51afd7ed558ccd
	for len(b) >= 8 {
		h = mix64(h ^ node.Key64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = mix64(h ^ w)
	}
	return h
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Component hashing (Zobrist style). A state's fingerprint is mix64 of
// the sum, mod 2⁶⁴, of
//
//   - one term per machine k: mix64(fingerprint(snapshot) + k·machineSalt),
//   - q_c·chanWeight(c) per channel c holding q_c pulses,
//   - initWeight(k) per set init bit,
//   - and, in fault mode, fingerprint of the fault section's bytes
//     (appendFaultKey).
//
// One step changes one machine, a few queue depths and at most one init
// bit, so the stepper keeps the sum current in O(changed components)
// instead of re-encoding and rehashing the whole state. The fault
// section is small and path-dependent (it carries the injection log), so
// it is hashed per visit rather than kept incrementally. The weights are
// fixed, unseeded constants, for the same reproducibility as fingerprint.
const (
	machineSalt = 0x9e3779b97f4a7c15
	chanSalt    = 0xd1b54a32d192ed03
	initSalt    = 0x8cb92ba72f3d8dd7
)

// machineTerm is machine k's component hash, given its snapshot. The
// index salt is what lets a snapshot omit construction constants: two
// machines whose snapshots may be compared are always the same node.
func machineTerm(k int, snap []byte) uint64 {
	return mix64(fingerprint(snap) + uint64(k+1)*machineSalt)
}

// chanWeight is the odd weight one queued pulse on channel c adds.
func chanWeight(c int) uint64 { return mix64(uint64(c)+chanSalt) | 1 }

// initWeight is the weight node k's set init bit adds.
func initWeight(k int) uint64 { return mix64(uint64(k) + initSalt) }

// componentSum computes st's component sum from scratch, storing each
// machine's term into terms when it is non-nil (len(st.ms) entries). buf
// is encoding scratch; the grown buffer is returned for reuse.
func componentSum(st *state, terms []uint64, buf []byte) (uint64, []byte) {
	var sum uint64
	for k, m := range st.ms {
		buf = m.SnapshotTo(buf[:0])
		t := machineTerm(k, buf)
		if terms != nil {
			terms[k] = t
		}
		sum += t
	}
	for c, q := range st.queues {
		sum += uint64(q) * chanWeight(c)
	}
	for k, in := range st.inited {
		if in {
			sum += initWeight(k)
		}
	}
	return sum, buf
}

// finishFingerprint turns a component sum into st's memo fingerprint by
// folding in the fault section (fault mode only) and finalizing.
func finishFingerprint(sum uint64, st *state, buf []byte) (uint64, []byte) {
	if st.fx != nil {
		buf = appendFaultKey(buf[:0], st.fx, st.sent)
		sum += fingerprint(buf)
	}
	return mix64(sum), buf
}

// stateFingerprint is the from-scratch memo fingerprint of st: the
// oracle the stepper's running sum is kept equal to in tests. buf is
// encoding scratch, returned grown.
func stateFingerprint(st *state, buf []byte) (uint64, []byte) {
	sum, buf := componentSum(st, nil, buf)
	return finishFingerprint(sum, st, buf)
}

// memoTable is the visited-state set. insert reports whether the state was
// new; it errors only in MemoAudit mode, on a fingerprint collision. The
// key slice is nil in MemoFingerprint mode and otherwise only valid during
// the call; implementations that retain it must copy.
type memoTable interface {
	insert(fp uint64, key []byte) (added bool, err error)
}

// newMemo builds the table for a mode.
func newMemo(mode MemoMode) (memoTable, error) {
	switch mode {
	case MemoFingerprint:
		return newFpMemo(), nil
	case MemoFullKeys:
		return keyMemo{}, nil
	case MemoAudit:
		return auditMemo{}, nil
	default:
		return nil, fmt.Errorf("check: unknown memo mode %d", mode)
	}
}

// fpMemo is an open-addressing (linear-probe) set of 64-bit fingerprints.
// Zero marks an empty slot; an actual zero fingerprint is tracked aside so
// no value needs remapping.
type fpMemo struct {
	slots   []uint64
	used    int
	hasZero bool
}

func newFpMemo() *fpMemo {
	return &fpMemo{slots: make([]uint64, 1024)}
}

func (t *fpMemo) insert(fp uint64, _ []byte) (bool, error) {
	if fp == 0 {
		if t.hasZero {
			return false, nil
		}
		t.hasZero = true
		return true, nil
	}
	mask := uint64(len(t.slots) - 1)
	i := fp & mask
	for t.slots[i] != 0 {
		if t.slots[i] == fp {
			return false, nil
		}
		i = (i + 1) & mask
	}
	t.slots[i] = fp
	t.used++
	if t.used*4 >= len(t.slots)*3 {
		t.grow()
	}
	return true, nil
}

func (t *fpMemo) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, fp := range old {
		if fp == 0 {
			continue
		}
		i := fp & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = fp
	}
}

// keyMemo stores full binary keys: the exact (pre-fingerprint) behavior.
type keyMemo map[string]struct{}

func (m keyMemo) insert(_ uint64, key []byte) (bool, error) {
	if _, seen := m[string(key)]; seen {
		return false, nil
	}
	m[string(key)] = struct{}{}
	return true, nil
}

// auditMemo maps fingerprint -> full key and fails loudly when two
// distinct keys share a fingerprint.
type auditMemo map[uint64]string

func (m auditMemo) insert(fp uint64, key []byte) (bool, error) {
	if prev, seen := m[fp]; seen {
		if prev != string(key) {
			return false, fmt.Errorf("%w: fingerprint %#016x shared by keys %x and %x",
				ErrFingerprintCollision, fp, prev, key)
		}
		return false, nil
	}
	m[fp] = string(key)
	return true, nil
}

// memoShards spreads a memoTable across mutex-striped shards selected by
// the top fingerprint bits (the probe index uses the low bits, so shard
// selection and probing stay independent). It is the only memo form the
// parallel explorer uses; the sequential engines use the bare tables.
const memoShardBits = 6

type shardedMemo struct {
	shards [1 << memoShardBits]struct {
		mu sync.Mutex
		t  memoTable
	}
}

func newShardedMemo(mode MemoMode) (*shardedMemo, error) {
	s := &shardedMemo{}
	for i := range s.shards {
		t, err := newMemo(mode)
		if err != nil {
			return nil, err
		}
		s.shards[i].t = t
	}
	return s, nil
}

func (s *shardedMemo) insert(fp uint64, key []byte) (bool, error) {
	sh := &s.shards[fp>>(64-memoShardBits)]
	sh.mu.Lock()
	added, err := sh.t.insert(fp, key)
	sh.mu.Unlock()
	return added, err
}
