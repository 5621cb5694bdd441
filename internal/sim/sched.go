package sim

import (
	"math/rand"

	"coleader/internal/pulse"
)

// View is the scheduler's window into the simulation: the currently
// deliverable channels plus enough metadata to implement adversaries.
type View interface {
	// Deliverable returns the non-empty set of channels the scheduler may
	// pick from, in ascending channel-id order. Valid until the next step.
	Deliverable() []int
	// HeadSeq returns the global send-order sequence number of channel c's
	// oldest queued message: 0 when c is empty or outside [0, 2n).
	HeadSeq(c int) uint64
	// QueueLen returns how many messages are queued on channel c: 0 when
	// c is outside [0, 2n).
	QueueLen(c int) int
	// Direction returns the ring direction traveled by messages on c: the
	// zero Direction when c is outside [0, 2n).
	Direction(c int) pulse.Direction
	// Step returns the number of handler invocations so far.
	Step() uint64
}

// HeapKind selects the ordering of a scheduler aux heap (see HeapHinted).
type HeapKind uint8

// Aux heap orderings.
const (
	// HeapOldest: smallest head sequence number first (Canonical's
	// pick). Sequence numbers are unique, so it is exactly the channel a
	// min-HeadSeq scan over Deliverable() selects.
	HeapOldest HeapKind = iota + 1
	// HeapNewest: largest head sequence number first (Newest's pick).
	HeapNewest
	// HeapDirOldest: smallest head sequence number among messages
	// traveling a fixed direction (DirBiased's preferred-direction pick).
	HeapDirOldest
	// HeapRank: smallest Rank(channel, head seq) first (HashDelay's pick).
	HeapRank
	// HeapHeaviest: largest queued-pulse count first (Heaviest's pick).
	// Unlike the head-seq-keyed kinds its key changes on every enqueue,
	// so the simulator re-registers the channel from the enqueue path,
	// not just on deliverability transitions.
	HeapHeaviest
)

// HeapHint asks the simulator to maintain one incrementally updated
// priority heap over deliverable channel heads on the scheduler's
// behalf.
type HeapHint struct {
	Kind HeapKind
	Dir  pulse.Direction                // HeapDirOldest only: CW or CCW
	Rank func(c int, seq uint64) uint64 // HeapRank only; must be pure
}

// HeapHinted is implemented by schedulers that want aux heaps: the
// simulator consults it once at construction, rejects a malformed hint
// with ErrHeapHint, and serves the heaps back through HeapView (except
// in rescan mode, which builds none, so the rescan reference exercises
// the plain scans). A
// heap-served pick must equal the corresponding Deliverable() scan's
// pick exactly — the optimized-vs-rescan scheduler-trace differential
// asserts this for every stock scheduler. A scheduler wrapper that drops
// this interface silently sends its inner scheduler back to the scan.
// WeightedView needs no hint, so it survives such wrappers.
type HeapHinted interface {
	HeapHints() []HeapHint
}

// HeapView is an optional fast path a View may provide: the pick of the
// heap a HeapHint of the given kind (and, for HeapDirOldest, direction
// d) asked for, in O(log n) amortized. ok is false when there is no
// such heap — the kind was not hinted, or the simulator is the rescan
// reference — and the caller must scan. c is the channel the kind's
// Deliverable() scan picks (each kind's doc names its order and
// tie-break), or -1 when the heap is live but no channel it covers is
// deliverable, which while Next runs only a HeapDirOldest heap can be.
type HeapView interface {
	HeapBest(kind HeapKind, d pulse.Direction) (c int, ok bool)
}

// WeightedView is an optional fast path for Random's pick, backed by a
// Fenwick tree over per-channel weights: a channel's queued-pulse count
// while deliverable, 0 otherwise. DeliverableWeight returns the total
// weight; ok is false when the fast path is unavailable (the rescan
// reference) and the caller must scan. PickWeighted returns the first
// deliverable channel, in ascending id order, whose running weight sum
// exceeds x, for x in [0, total): exactly the channel a
// "x -= QueueLen(c)" scan over Deliverable() stops at. It returns -1
// when there is no tree to pick from — DeliverableWeight has not been
// called yet, or returned ok false — and when x lies outside
// [0, total); Run rejects a -1 pick as an invalid channel. The
// simulator builds the tree on the first DeliverableWeight call and
// keeps it current from then on, so it needs no HeapHint and a
// scheduler that never asks pays for no tree.
type WeightedView interface {
	DeliverableWeight() (total int, ok bool)
	PickWeighted(x int) int
}

type view[M any] struct{ s *Sim[M] }

func (v *view[M]) Deliverable() []int { return v.s.Deliverable() }
func (v *view[M]) QueueLen(c int) int { return v.s.QueueLen(c) }
func (v *view[M]) Step() uint64       { return v.s.step }

// HeadSeq reads the pool's zero sentinel for an empty channel.
func (v *view[M]) HeadSeq(c int) uint64 {
	s := v.s
	if uint(c) >= uint(len(s.queues)) {
		return 0
	}
	return s.pool.front(&s.queues[c]).seq
}

func (v *view[M]) Direction(c int) pulse.Direction {
	if uint(c) >= uint(len(v.s.chanDir)) {
		return 0
	}
	return v.s.chanDir[c]
}

func (v *view[M]) HeapBest(kind HeapKind, d pulse.Direction) (int, bool) {
	s := v.s
	for i := range s.aux {
		if a := &s.aux[i]; a.sameHeap(HeapHint{Kind: kind, Dir: d}) {
			return s.auxBest(a), true
		}
	}
	if kind == HeapHeaviest && s.heavy != nil {
		return s.heavyBest(), true
	}
	return 0, false
}

func (v *view[M]) DeliverableWeight() (int, bool) {
	s := v.s
	if s.rescan {
		return 0, false
	}
	if s.weights == nil {
		s.buildWeights()
	}
	return int(s.weights.total), true
}

func (v *view[M]) PickWeighted(x int) int {
	f := v.s.weights
	if f == nil || x < 0 || int64(x) >= f.total {
		return -1
	}
	return f.pick(int64(x))
}

// Scheduler chooses the next delivery. Next is called only when at least
// one channel is deliverable and must return one of View.Deliverable().
// Schedulers embody the asynchronous adversary: every Scheduler realizes
// some legal schedule, and together the stock schedulers probe the corner
// cases (oldest-first, newest-first, direction starvation, randomness).
type Scheduler interface {
	Next(v View) int
}

// heapBest is v's HeapView pick for the heap of the given kind, ok false
// when v has none and the caller must scan. It is written to stay within
// the inliner's budget, so a heap-served Next pays no extra call.
func heapBest(v View, kind HeapKind, d pulse.Direction) (c int, ok bool) {
	if hv, is := v.(HeapView); is {
		c, ok = hv.HeapBest(kind, d)
	}
	return c, ok
}

// Canonical is the scheduler of Definition 21: messages are delivered one
// by one in exactly the order they were sent, with ties among messages
// emitted by the same handler broken in favor of clockwise ones (the
// emitter enqueues CW sends first, so send order realizes the tie-break).
// It is the scheduler under which solitude patterns are defined.
type Canonical struct{}

// Next implements Scheduler.
func (Canonical) Next(v View) int {
	if c, ok := heapBest(v, HeapOldest, 0); ok {
		return c
	}
	ds := v.Deliverable()
	best := ds[0]
	for _, c := range ds[1:] {
		if v.HeadSeq(c) < v.HeadSeq(best) {
			best = c
		}
	}
	return best
}

// HeapHints implements HeapHinted: a min-sequence heap replaces the scan.
func (Canonical) HeapHints() []HeapHint { return []HeapHint{{Kind: HeapOldest}} }

// Newest delivers the most recently sent deliverable message first
// (subject to per-channel FIFO): a maximally "unfair" adversary that lets
// old messages linger arbitrarily long.
type Newest struct{}

// Next implements Scheduler.
func (Newest) Next(v View) int {
	if c, ok := heapBest(v, HeapNewest, 0); ok {
		return c
	}
	ds := v.Deliverable()
	best := ds[0]
	for _, c := range ds[1:] {
		if v.HeadSeq(c) > v.HeadSeq(best) {
			best = c
		}
	}
	return best
}

// HeapHints implements HeapHinted: a max-sequence heap replaces the scan.
func (Newest) HeapHints() []HeapHint { return []HeapHint{{Kind: HeapNewest}} }

// Heaviest delivers from the deliverable channel holding the most
// queued pulses, ties toward the oldest head and then the lowest
// channel id: a bursty adversary under which traffic piles up on one
// link and flushes in a single burst. Serving the deepest backlog is
// self-reinforcing on a relay ring — the flushed run lands on the next
// channel, whose queue is now the deepest — so one ring-sized wave
// sweeps the ring instead of n pulses trickling in lockstep. The
// oldest-head tie-break matters: when every queue is depth one (the
// start of a relay phase), the oldest parked pulse sits upstream of the
// whole backlog in emission order, so starting there sends the sweep
// downstream over every parked pulse and the snowball forms; a naive
// lowest-channel tie-break can seed the sweep downstream of the
// backlog, where relays die before ever meeting a parked pulse. That
// makes Heaviest the schedule under which the pulse-run batch fast path
// (WithBatching) coalesces maximally: canonical's oldest-first pick is
// inherently breadth-first and keeps every queue shallow, which caps
// batching near 3x on Algorithm 2, while Heaviest turns whole backlogs
// into single O(1) transitions. Pulse totals are schedule-invariant, so
// it probes the same Theta(n·ID_max) volume as every other stock
// scheduler. The HeapHeaviest hint serves the pick from an indexed
// heap plus one hot entry held outside it: the newest registration
// that beat the previous hot one. That is usually the channel a flushed
// backlog just landed on, so the next pick costs no O(log n) sift.
type Heaviest struct{}

// Next implements Scheduler.
func (Heaviest) Next(v View) int {
	if c, ok := heapBest(v, HeapHeaviest, 0); ok {
		return c
	}
	ds := v.Deliverable()
	best, qb := ds[0], v.QueueLen(ds[0])
	for _, c := range ds[1:] {
		if ql := v.QueueLen(c); ql > qb || (ql == qb && v.HeadSeq(c) < v.HeadSeq(best)) {
			best, qb = c, ql
		}
	}
	return best
}

// HeapHints implements HeapHinted: a max-queue-length heap replaces the
// scan.
func (Heaviest) HeapHints() []HeapHint { return []HeapHint{{Kind: HeapHeaviest}} }

// Random delivers a uniformly random in-flight deliverable message
// (channels weighted by queue length). Deterministic for a fixed seed.
// Each pick draws one rng.Intn(total) and maps it onto the channels in
// ascending id order; WeightedView lets the simulator do that mapping
// with a Fenwick-tree descent in O(log channels) instead of two passes
// over Deliverable(), with the same draw and the same channel.
type Random struct{ rng *rand.Rand }

// NewRandom returns a Random scheduler seeded with seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Scheduler.
func (r *Random) Next(v View) int {
	if wv, ok := v.(WeightedView); ok {
		if total, ok := wv.DeliverableWeight(); ok {
			return wv.PickWeighted(r.rng.Intn(total))
		}
	}
	ds := v.Deliverable()
	total := 0
	for _, c := range ds {
		total += v.QueueLen(c)
	}
	pick := r.rng.Intn(total)
	for _, c := range ds {
		pick -= v.QueueLen(c)
		if pick < 0 {
			return c
		}
	}
	return ds[len(ds)-1] // unreachable
}

// RoundRobin cycles through channels, giving each ready channel one
// delivery in turn: a "fair" schedule resembling lock-step execution.
type RoundRobin struct{ last int }

// NewRoundRobin returns a RoundRobin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Next implements Scheduler.
func (r *RoundRobin) Next(v View) int {
	ds := v.Deliverable()
	for _, c := range ds {
		if c > r.last {
			r.last = c
			return c
		}
	}
	r.last = ds[0]
	return ds[0]
}

// DirBiased starves one direction: whenever any message traveling Prefer
// is deliverable it goes first (oldest such first), and only otherwise does
// the other direction advance. With Prefer = CCW it maximally rushes the
// counterclockwise instance inside Algorithm 2, stressing the lag mechanism
// that its correctness rests on.
type DirBiased struct {
	// Prefer is the direction whose messages are always delivered first.
	Prefer pulse.Direction
}

// Next implements Scheduler.
func (d DirBiased) Next(v View) int {
	if c, ok := heapBest(v, HeapDirOldest, d.Prefer); ok {
		if c >= 0 {
			return c
		}
		// Heap live, no preferred-direction candidate: fall through to
		// the canonical pick, same as the scan's "not found" branch.
		return Canonical{}.Next(v)
	}
	ds := v.Deliverable()
	best, found := 0, false
	for _, c := range ds {
		if v.Direction(c) != d.Prefer {
			continue
		}
		if !found || v.HeadSeq(c) < v.HeadSeq(best) {
			best, found = c, true
		}
	}
	if found {
		return best
	}
	return Canonical{}.Next(v)
}

// HeapHints implements HeapHinted: a per-direction oldest heap over the
// preferred direction replaces the scan, and Canonical's oldest heap
// serves the fallback pick.
func (d DirBiased) HeapHints() []HeapHint {
	return []HeapHint{{Kind: HeapDirOldest, Dir: d.Prefer}, {Kind: HeapOldest}}
}

// Laggy alternates bursts of canonical delivery with bursts of random
// delivery, switching with probability 1/8 per step: a schedule with long
// quiet stretches punctuated by reordering storms. Despite its stock name
// ("flaky"), it never drops or corrupts anything — a scheduler only reorders
// delivery; actual pulse loss, duplication, and injection live in
// internal/fault and attach via WithFaultPlane. Storm bursts take the
// inner Random's WeightedView pick; canonical bursts take Canonical's
// HeapOldest heap, which Laggy hints on its behalf.
type Laggy struct {
	rng    *rand.Rand
	stormy bool
	inner  *Random
}

// NewLaggy returns a Laggy scheduler seeded with seed.
func NewLaggy(seed int64) *Laggy {
	return &Laggy{
		rng:   rand.New(rand.NewSource(seed)),
		inner: NewRandom(seed + 1),
	}
}

// Next implements Scheduler.
func (f *Laggy) Next(v View) int {
	if f.rng.Intn(8) == 0 {
		f.stormy = !f.stormy
	}
	if f.stormy {
		return f.inner.Next(v)
	}
	return Canonical{}.Next(v)
}

// HeapHints implements HeapHinted: Canonical's hint, for the canonical
// bursts.
func (*Laggy) HeapHints() []HeapHint { return Canonical{}.HeapHints() }

// HashDelay assigns every message a pseudo-random "delay rank" derived
// from hashing (seed, channel, sequence number) and always delivers the
// deliverable head with the smallest rank. Unlike Random it fixes each
// message's relative delay at send time, modeling per-message link delays
// (two messages on different channels overtake each other consistently,
// not re-rolled per step), while per-channel FIFO still holds because only
// queue heads are candidates.
type HashDelay struct{ seed uint64 }

// NewHashDelay returns a HashDelay scheduler for the given seed.
func NewHashDelay(seed int64) HashDelay { return HashDelay{seed: uint64(seed)} }

// Next implements Scheduler.
func (h HashDelay) Next(v View) int {
	if c, ok := heapBest(v, HeapRank, 0); ok {
		return c
	}
	ds := v.Deliverable()
	best, bestRank := ds[0], h.rank(ds[0], v.HeadSeq(ds[0]))
	for _, c := range ds[1:] {
		if r := h.rank(c, v.HeadSeq(c)); r < bestRank {
			best, bestRank = c, r
		}
	}
	return best
}

// HeapHints implements HeapHinted: a min-rank heap keyed by the same
// (seed, channel, seq) hash replaces the scan.
func (h HashDelay) HeapHints() []HeapHint {
	return []HeapHint{{Kind: HeapRank, Rank: h.rank}}
}

// rank is an xorshift-style mix of (seed, channel, seq).
func (h HashDelay) rank(c int, seq uint64) uint64 {
	x := h.seed ^ uint64(c)*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stock enumerates one instance of every stock scheduler, keyed by a short
// name; experiments sweep over it. Seeded schedulers use the given seed.
func Stock(seed int64) map[string]Scheduler {
	return map[string]Scheduler{
		"canonical":  Canonical{},
		"newest":     Newest{},
		"heaviest":   Heaviest{},
		"random":     NewRandom(seed),
		"roundrobin": NewRoundRobin(),
		"ccw-first":  DirBiased{Prefer: pulse.CCW},
		"cw-first":   DirBiased{Prefer: pulse.CW},
		"flaky":      NewLaggy(seed),
		"hashdelay":  NewHashDelay(seed),
	}
}
