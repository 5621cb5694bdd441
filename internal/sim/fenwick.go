package sim

import "math/bits"

// fenwick is WeightedView's index: a binary indexed tree over one
// weight per channel — the queued-pulse count of a deliverable channel,
// 0 for any other — with a running total. It answers Random's weighted
// pick in O(log channels) instead of two passes over Deliverable().
// Unlike the aux heaps it holds no stale entries: reweigh rewrites a
// channel's weight at every site that can move it.
type fenwick struct {
	tree  []int64 // 1-indexed partial sums; tree[i] covers channels i-(i&-i) .. i-1
	w     []int64 // registered weight per channel
	total int64
	top   int // largest power of two <= len(w): the descent's first stride
}

// newFenwick builds the tree over the given weights in O(len(w)),
// taking ownership of w.
func newFenwick(w []int64) *fenwick {
	f := &fenwick{
		tree: make([]int64, len(w)+1),
		w:    w,
		top:  1 << bits.Len(uint(len(w))) >> 1,
	}
	for i := 1; i < len(f.tree); i++ {
		f.tree[i] += w[i-1]
		f.total += w[i-1]
		if j := i + i&-i; j < len(f.tree) {
			f.tree[j] += f.tree[i]
		}
	}
	return f
}

// set registers weight x for channel c.
func (f *fenwick) set(c int, x int64) {
	d := x - f.w[c]
	if d == 0 {
		return
	}
	f.w[c] = x
	f.total += d
	for i := c + 1; i < len(f.tree); i += i & -i {
		f.tree[i] += d
	}
}

// pick returns the first channel, in ascending id order, whose prefix
// weight (its own weight included) exceeds x: the channel a
// "x -= weight; stop when x < 0" scan over the channels selects.
// x must lie in [0, total).
func (f *fenwick) pick(x int64) int {
	pos := 0
	for step := f.top; step > 0; step >>= 1 {
		if next := pos + step; next < len(f.tree) && f.tree[next] <= x {
			pos = next
			x -= f.tree[next]
		}
	}
	return pos
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

// reweigh brings channel c's weight in the tree up to date. refreshChan
// calls it after every deliverability decision, and the enqueue paths
// call it when a push lands on an already non-empty queue (the only
// count change refreshChan does not see). Callers check s.weights != nil
// first, which keeps runs that never pick by weight at one compare per
// site.
func (s *Sim[M]) reweigh(c int) { s.weights.set(c, s.weight(c)) }
