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
	// open-addressing tables and never builds a state key. The
	// fingerprint is a sum of per-component hashes (one per machine, one
	// per queued pulse, one per init bit, and in fault mode one per
	// counted pulse, crashed node, injection-log entry and window count)
	// that the undo stepper keeps current as it steps (see Component
	// hashing). Every path to a state has the same length, so the table
	// is split by depth: a state is only looked up among the states of
	// its own depth class. This cuts the dominant memo-table allocation
	// (one string copy per distinct state) and the per-visit key
	// encoding to nothing, at the theoretical cost of fingerprint
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

// fingerprint hashes a byte string — one machine's snapshot (see
// Component hashing below) — 8 bytes at a time: each 64-bit
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
//   - and, in fault mode, the fault section's terms (faultX.sum):
//     sent·sentWeight for the sent counter, crashWeight(k) per crashed
//     node, logWeight(i, r) per injection-log entry, and for a windowed
//     plan min(count, Window+1)·windowWeight per event counter, the
//     saturated value the state key holds.
//
// One step changes one machine, a few queue depths, at most one init
// bit and, in fault mode, a few counters and at most one crashed bit or
// log entry, so the stepper keeps the sum current in O(changed
// components) where each field moves, instead of re-encoding and
// rehashing the whole state. The weights are fixed, unseeded constants,
// for the same reproducibility as fingerprint.
const (
	machineSalt = 0x9e3779b97f4a7c15
	chanSalt    = 0xd1b54a32d192ed03
	initSalt    = 0x8cb92ba72f3d8dd7
	crashSalt   = 0xa0761d6478bd642f
	logSalt     = 0xe7037ed1a0b428db
	windowSalt  = 0x8ebc6af09c88c6e3

	// sentWeight is the odd weight one pulse counted by sent adds.
	sentWeight = 0x589965cc75374cc3
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

// crashWeight is the weight node k's set crashed bit adds.
func crashWeight(k int) uint64 { return mix64(uint64(k) + crashSalt) }

// logWeight is the weight injection r adds as entry i of the path log.
func logWeight(i int, r faultRec) uint64 {
	v := uint64(i)<<40 | uint64(r.class)<<24 | uint64(r.target)<<8 | uint64(r.mask)
	return mix64(v + logSalt)
}

// windowWeight is the odd weight one counted event adds to counter i of
// a windowed plan's counter set (windowHandlers, windowSends or
// windowDelivs) while the counter is at most Window+1.
func windowWeight(set, i int) uint64 { return mix64((uint64(i)<<2|uint64(set))+windowSalt) | 1 }

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
	if st.fx != nil {
		sum += st.fx.sum(st.sent)
	}
	return sum, buf
}

// stateFingerprint is the from-scratch memo fingerprint of st: the
// oracle the stepper's running sum is kept equal to in tests. buf is
// encoding scratch, returned grown.
func stateFingerprint(st *state, buf []byte) (uint64, []byte) {
	sum, buf := componentSum(st, nil, buf)
	return mix64(sum), buf
}

// memoTable is the visited-state set. insert reports whether the state,
// at the given depth, was new; it errors only in MemoAudit mode, on a
// fingerprint collision. The key slice is nil in MemoFingerprint mode and
// otherwise only valid during the call; implementations that retain it
// must copy.
type memoTable interface {
	insert(depth int, fp uint64, key []byte) (added bool, err error)
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

// memoClasses is the number of depth classes of an fpMemo: a state at
// depth d is stored in, and looked up among, class d mod memoClasses.
// Every path to a state has the same length (see the depth-determinism
// note in faults.go), so a state never needs a class but its own; the
// DFS works a window of adjacent depths at a time, so the classes it
// touches stay small and warm where one flat table would be probed at a
// random slot of its whole size. A fixed class count keeps the memo's
// footprint independent of how deep an exploration goes.
const memoClasses = 64

// memoClassSlots is each class's initial table size; the 64 initial
// tables are carved from one slab.
const memoClassSlots = 16

// fpMemo is a set of 64-bit fingerprints split into depth classes, each
// an open-addressing (linear-probe) table. Zero marks an empty slot; an
// actual zero fingerprint is tracked aside, per class, so no value needs
// remapping.
type fpMemo struct {
	classes [memoClasses]fpClass
	used    int    // nonzero fingerprints stored, over every class
	zeros   uint64 // bit c set: class c holds the zero fingerprint
}

// fpClass is one depth class's table.
type fpClass struct {
	slots []uint64
	used  int
}

func newFpMemo() *fpMemo {
	t := &fpMemo{}
	slab := make([]uint64, memoClasses*memoClassSlots)
	for c := range t.classes {
		t.classes[c].slots = slab[c*memoClassSlots : (c+1)*memoClassSlots : (c+1)*memoClassSlots]
	}
	return t
}

func (t *fpMemo) insert(depth int, fp uint64, _ []byte) (bool, error) {
	cl := depth & (memoClasses - 1)
	if fp == 0 {
		if t.zeros&(1<<cl) != 0 {
			return false, nil
		}
		t.zeros |= 1 << cl
		return true, nil
	}
	c := &t.classes[cl]
	mask := uint64(len(c.slots) - 1)
	i := fp & mask
	for c.slots[i] != 0 {
		if c.slots[i] == fp {
			return false, nil
		}
		i = (i + 1) & mask
	}
	c.slots[i] = fp
	c.used++
	t.used++
	if c.used*4 >= len(c.slots)*3 {
		c.grow()
	}
	return true, nil
}

func (c *fpClass) grow() {
	old := c.slots
	c.slots = make([]uint64, 2*len(old))
	mask := uint64(len(c.slots) - 1)
	for _, fp := range old {
		if fp == 0 {
			continue
		}
		i := fp & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = fp
	}
}

// keyMemo stores full binary keys: the exact (pre-fingerprint) behavior.
type keyMemo map[string]struct{}

func (m keyMemo) insert(_ int, _ uint64, key []byte) (bool, error) {
	if _, seen := m[string(key)]; seen {
		return false, nil
	}
	m[string(key)] = struct{}{}
	return true, nil
}

// auditMemo maps fingerprint -> full key and fails loudly when two
// distinct keys share a fingerprint.
type auditMemo map[uint64]string

func (m auditMemo) insert(_ int, fp uint64, key []byte) (bool, error) {
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
// selection and probing stay independent); in MemoFingerprint mode each
// shard is a depth-classed fpMemo of its own. It is the only memo form
// the parallel explorer uses; the sequential engines use the bare tables.
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

func (s *shardedMemo) insert(depth int, fp uint64, key []byte) (bool, error) {
	sh := &s.shards[fp>>(64-memoShardBits)]
	sh.mu.Lock()
	added, err := sh.t.insert(depth, fp, key)
	sh.mu.Unlock()
	return added, err
}
