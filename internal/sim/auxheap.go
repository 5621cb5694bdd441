package sim

import (
	"coleader/internal/pulse"
)

// auxHeap is one scheduler-requested priority heap over deliverable
// channel heads (see HeapHinted). The head-seq-keyed kinds are lazily
// validated, like the oldest-message heap: entries are checked against
// the live queues on inspection and stale ones dropped, and mark
// deduplicates pushes so each (channel, head-seq) pair is enqueued at
// most once per heap. HeapHeaviest is indexed instead: its key (the
// queued-pulse count) changes on every enqueue, which under lazy
// staleness would grow the heap by one junk entry per count move, so
// each channel owns at most one entry and key changes rewrite it.
//
// HeapHeaviest also holds one hot entry outside h: the newest
// registration that beat the previous hot one. Under Heaviest a flushed
// backlog lands on the next channel, which is then the deepest queue,
// so the winner is usually the channel just registered; holding it
// outside h spares the O(log n) sift-up on arrival and the sift-down
// when it drains and leaves. The pick is the better of the hot entry
// and h's root. Every entry, hot or in h, goes stale only by losing
// deliverability or by a count or head move that its channel's next
// registration overwrites; stale entries are dropped when inspected.
type auxHeap struct {
	kind HeapKind
	dir  pulse.Direction                // HeapDirOldest: covered direction
	rank func(c int, seq uint64) uint64 // HeapRank: key function

	h    []auxEntry
	mark []uint64 // lazy kinds: last seq pushed per channel; 0 = none
	// pos is HeapHeaviest's index: heap index + 1 per channel, 0 when
	// absent, -1 while the channel is hot.
	pos []int32
	hot auxEntry // HeapHeaviest: the entry held outside h; c = -1 when none
}

// auxEntry is one heap candidate: ordering key, the head sequence
// number it was registered under (every kind's validity witness), and
// the channel. HeapHeaviest additionally witnesses the queued-pulse
// count through its key (key == ^count).
type auxEntry struct {
	key uint64
	seq uint64
	c   int32
}

// less orders candidates by key, breaking ties toward the smaller
// channel id — exactly the winner of the ascending Deliverable() scan
// the heap replaces, so heap and scan pick identically even if two
// messages hash to the same rank. (For HeapNewest and HeapDirOldest the
// key is a sequence number or its complement, which is unique, so the
// tie-break never fires there.) HeapHeaviest keys are queue depths,
// where ties are routine; its scan breaks them toward the oldest head
// first, so the heap does too.
func (a *auxHeap) less(x, y auxEntry) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if a.kind == HeapHeaviest && x.seq != y.seq {
		return x.seq < y.seq
	}
	return x.c < y.c
}

// installHeapHints wires the aux heaps the scheduler asked for. Called
// from the constructors after options ran, and skipped entirely in
// rescan mode so the rescan reference stays a heap-free oracle: the
// optimized-vs-rescan differential then proves heap picks equal scan
// picks for every hinted scheduler.
func (s *Sim[M]) installHeapHints() {
	hh, ok := s.sched.(HeapHinted)
	if !ok {
		return
	}
	for _, hint := range hh.HeapHints() {
		a := auxHeap{
			kind: hint.Kind,
			dir:  hint.Dir,
			rank: hint.Rank,
			hot:  auxEntry{c: -1},
		}
		if hint.Kind == HeapHeaviest {
			a.pos = make([]int32, len(s.queues))
		} else {
			a.mark = make([]uint64, len(s.queues))
		}
		s.aux = append(s.aux, a)
	}
}

// auxPush registers the deliverable head (c, seq) in every aux heap
// covering c. It runs from refreshChan alongside the oldest-heap push —
// and, for the count-keyed HeapHeaviest, also from the enqueue paths
// (an enqueue onto a non-empty deliverable channel changes its count
// but not its head) — which maintains the invariant that every
// currently deliverable channel has a valid entry in every
// direction-matching aux heap, HeapHeaviest's hot entry included.
func (s *Sim[M]) auxPush(c int, seq uint64) {
	for i := range s.aux {
		a := &s.aux[i]
		if a.kind == HeapDirOldest && s.chanDir[c] != a.dir {
			continue
		}
		var key uint64
		switch a.kind {
		case HeapNewest:
			key = ^seq
		case HeapDirOldest:
			key = seq
		case HeapRank:
			key = a.rank(c, seq)
		case HeapHeaviest:
			s.auxHeavy(a, auxEntry{key: ^s.queues[c].tot, seq: seq, c: int32(c)})
			continue
		}
		if a.mark[c] == seq {
			continue
		}
		if len(a.h) >= 2*len(s.queues)+64 {
			// A lazy heap's stale entries drain only when they surface at
			// the top; a scheduler that stops consulting a kind (or
			// consults another kind first) would otherwise let them pile
			// up across a long run. Rebuilding from the live candidate
			// set bounds the heap at O(channels), amortized O(1) per push.
			s.auxCompact(a)
			if a.mark[c] == seq {
				continue
			}
		}
		a.mark[c] = seq
		a.push(auxEntry{key: key, seq: seq, c: int32(c)})
	}
}

// auxHeavy is HeapHeaviest's registration of e, channel e.c's
// current count and head. The hot channel's own registration rewrites
// the hot entry in place. A registration that beats the hot entry
// takes its place (leaving h if it was there); the displaced entry
// moves into h if it is still valid, and is otherwise dropped — its
// channel lost deliverability or was just popped, and the handler's
// refreshChan re-registers it if it is deliverable. Any other
// registration is fixed into h.
func (s *Sim[M]) auxHeavy(a *auxHeap, e auxEntry) {
	c := int(e.c)
	switch i := a.pos[c]; {
	case i < 0:
		a.hot = e
	case a.hot.c < 0 || a.less(e, a.hot):
		if i > 0 {
			a.removeAt(int(i - 1))
		}
		old := a.hot
		a.hot = e
		a.pos[c] = -1
		if old.c >= 0 {
			a.pos[old.c] = 0
			if s.auxValid(a, old) {
				a.fix(int(old.c), old.key, old.seq)
			}
		}
	default:
		a.fix(c, e.key, e.seq)
	}
}

// fix inserts channel c into h if absent, otherwise rewrites its
// single entry's key and seq in place and restores heap order around
// it. Together with the hot entry, at most one entry per channel ever
// exists, so h never grows past the channel count and auxBest never
// drains key-stale junk.
func (a *auxHeap) fix(c int, key, seq uint64) {
	if i := a.pos[c]; i > 0 {
		e := &a.h[i-1]
		if e.key == key && e.seq == seq {
			return
		}
		e.key, e.seq = key, seq
		a.reheap(int(i - 1))
		return
	}
	a.h = append(a.h, auxEntry{key: key, seq: seq, c: int32(c)})
	a.pos[c] = int32(len(a.h))
	a.siftUp(len(a.h) - 1)
}

// reheap restores heap order around index i after its entry changed.
func (a *auxHeap) reheap(i int) {
	if i > 0 && a.less(a.h[i], a.h[(i-1)/2]) {
		a.siftUp(i)
	} else {
		a.siftDown(i)
	}
}

// siftUp restores heap order from index i toward the root, maintaining
// pos for indexed kinds.
func (a *auxHeap) siftUp(i int) {
	h := a.h
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(h[i], h[parent]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		if a.pos != nil {
			a.pos[h[i].c] = int32(i + 1)
			a.pos[h[parent].c] = int32(parent + 1)
		}
		i = parent
	}
}

// siftDown restores heap order from index i toward the leaves,
// maintaining pos for indexed kinds.
func (a *auxHeap) siftDown(i int) {
	h := a.h
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && a.less(h[l], h[small]) {
			small = l
		}
		if r < len(h) && a.less(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		if a.pos != nil {
			a.pos[h[i].c] = int32(i + 1)
			a.pos[h[small].c] = int32(small + 1)
		}
		i = small
	}
}

// auxCompact rebuilds a lazy aux heap from exactly its live candidate
// set — every covered deliverable channel's current head — resetting
// the dedup marks to match. Afterward auxPush's dedup check correctly
// skips candidates the rebuild already registered. Indexed kinds never
// need it: fix keeps them at one entry per channel.
func (s *Sim[M]) auxCompact(a *auxHeap) {
	h := a.h[:0]
	for i := range a.mark {
		a.mark[i] = 0
	}
	for c := range s.queues {
		if !s.deliv.get(c) {
			continue
		}
		if a.kind == HeapDirOldest && s.chanDir[c] != a.dir {
			continue
		}
		seq := s.queues[c].front().seq
		var key uint64
		switch a.kind {
		case HeapNewest:
			key = ^seq
		case HeapDirOldest:
			key = seq
		case HeapRank:
			key = a.rank(c, seq)
		}
		a.mark[c] = seq
		h = append(h, auxEntry{key: key, seq: seq, c: int32(c)})
	}
	a.h = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		a.siftDown(i)
	}
}

func (a *auxHeap) push(e auxEntry) {
	a.h = append(a.h, e)
	a.siftUp(len(a.h) - 1)
}

// drop removes the root, clearing its dedup mark if it still owns it.
func (a *auxHeap) drop() {
	if top := a.h[0]; a.pos == nil && a.mark[top.c] == top.seq {
		a.mark[top.c] = 0
	}
	a.removeAt(0)
}

// removeAt deletes entry i, maintaining pos for indexed kinds.
func (a *auxHeap) removeAt(i int) {
	h := a.h
	if a.pos != nil {
		a.pos[h[i].c] = 0
	}
	last := len(h) - 1
	h[i] = h[last]
	a.h = h[:last]
	if i == last {
		return
	}
	if a.pos != nil {
		a.pos[h[i].c] = int32(i + 1)
	}
	a.reheap(i)
}

// auxValid reports whether e is still its channel's live candidate:
// deliverable, with the head — and, for HeapHeaviest, the queued-pulse
// count — it was registered under. The count is compared first, so an
// entry whose queue was just drained fails before its head is read.
func (s *Sim[M]) auxValid(a *auxHeap, e auxEntry) bool {
	q := &s.queues[e.c]
	if a.kind == HeapHeaviest && q.tot != ^e.key {
		return false
	}
	return s.deliv.get(int(e.c)) && q.front().seq == e.seq
}

// auxBest returns the best channel of aux heap i that is still valid,
// dropping stale entries on the way: the better of the hot entry and
// h's root for HeapHeaviest, the root otherwise. ok is false only when
// no covered channel is deliverable (possible for direction-filtered
// heaps; for unfiltered heaps the push invariant makes ok true whenever
// anything is deliverable at all).
func (s *Sim[M]) auxBest(i int) (int, bool) {
	a := &s.aux[i]
	if a.hot.c >= 0 && !s.auxValid(a, a.hot) {
		a.pos[a.hot.c] = 0
		a.hot.c = -1
	}
	for len(a.h) > 0 && !s.auxValid(a, a.h[0]) {
		a.drop()
	}
	switch {
	case len(a.h) > 0 && (a.hot.c < 0 || a.less(a.h[0], a.hot)):
		return int(a.h[0].c), true
	case a.hot.c >= 0:
		return int(a.hot.c), true
	}
	return 0, false
}

// auxFind locates the aux heap of the given kind (and direction, for
// HeapDirOldest); -1 when the scheduler registered none.
func (s *Sim[M]) auxFind(kind HeapKind, dir pulse.Direction) int {
	for i := range s.aux {
		if s.aux[i].kind == kind && (kind != HeapDirOldest || s.aux[i].dir == dir) {
			return i
		}
	}
	return -1
}
