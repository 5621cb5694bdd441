package sim

import "math/bits"

// fenwick is WeightedView's index: a binary indexed tree over one
// weight per channel — the queued-pulse count of a deliverable channel,
// 0 for any other — with a running total. It answers Random's weighted
// pick in O(log channels) instead of two passes over Deliverable().
// Unlike the aux heaps it holds no stale entries: reweigh rewrites a
// channel's weight at every site that can move it.
//
// The tree is padded to a power of two: channels beyond len(w) weigh 0
// forever. Padding lets pick descend every level with no "is the node
// inside the tree" test, and lets it index with a mask the compiler
// proves in range, so the descent carries neither branches nor bounds
// checks.
type fenwick struct {
	// tree[i-1] is the 1-indexed Fenwick node i: the sum of channels
	// i-(i&-i) .. i-1. len(tree) is a power of two, at least len(w).
	tree  []int64
	w     []int64 // registered weight per channel
	total int64
}

// newFenwick builds the tree over the given weights in O(len(w)),
// taking ownership of w.
func newFenwick(w []int64) *fenwick {
	f := &fenwick{
		tree: make([]int64, 1<<bits.Len(uint(max(len(w), 1)-1))),
		w:    w,
	}
	copy(f.tree, w)
	for i := 1; i <= len(f.tree); i++ {
		if j := i + i&-i; j <= len(f.tree) {
			f.tree[j-1] += f.tree[i-1]
		}
	}
	f.total = f.tree[len(f.tree)-1] // the top node covers every channel
	return f
}

// set registers weight x for channel c. Callers skip the call when x
// equals f.w[c]: the write would add 0 along the whole update path.
func (f *fenwick) set(c int, x int64) {
	d := x - f.w[c]
	f.w[c] = x
	f.total += d
	for i := c + 1; i <= len(f.tree); i += i & -i {
		f.tree[i-1] += d
	}
}

// pick returns the first channel, in ascending id order, whose prefix
// weight (its own weight included) exceeds x: the channel a
// "x -= weight; stop when x < 0" scan over the channels selects.
// x must lie in [0, total).
//
// The descent keeps p+1 channels whose sum is at most x behind it and
// probes the node that would extend them by step channels. The test
// "node sum <= x" becomes the mask m: all ones when the node sum t is
// at most x (t-x-1 is then negative) and zero otherwise, so taking the
// step is two masked adds instead of a data-dependent branch that a
// random x mispredicts on about half the levels. The top node (the
// total, never at most x) is skipped by starting at half the width.
func (f *fenwick) pick(x int64) int {
	tree := f.tree
	mask := len(tree) - 1
	_ = tree[mask] // one check here proves every masked index below in range
	p := -1
	for step := len(tree) >> 1; step > 0; step >>= 1 {
		t := tree[(p+step)&mask]
		m := (t - x - 1) >> 63
		p += step & int(m)
		x -= t & m
	}
	return p + 1
}

// weight is channel c's weight in the tree: its queued-pulse count while
// deliverable, 0 otherwise (a crashed node's channels keep their pulses
// but weigh 0).
func (s *Sim[M]) weight(c int) int64 {
	if s.deliv.get(c) {
		return int64(s.queues[c].tot)
	}
	return 0
}

// buildWeights installs the tree from the current queues. WeightedView
// calls it on the first weighted pick; from then on reweigh keeps it
// current.
func (s *Sim[M]) buildWeights() {
	w := make([]int64, len(s.queues))
	for c := range w {
		w[c] = s.weight(c)
	}
	s.weights = newFenwick(w)
}

// reweigh registers weight w for channel c in the tree when one is
// installed and w differs from c's registered weight. refreshChan calls
// it after every deliverability decision, and the enqueue paths call it
// when a push lands on an already non-empty queue (the only count
// change refreshChan does not see). A channel whose weight did not move
// — a handler's untouched own port, a queue that stays undeliverable —
// costs two compares and no write.
func (s *Sim[M]) reweigh(c int, w int64) {
	if f := s.weights; f != nil && f.w[c] != w {
		f.set(c, w)
	}
}
