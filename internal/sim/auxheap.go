package sim

import (
	"errors"
	"fmt"
	"slices"

	"coleader/internal/pulse"
)

// ErrHeapHint: the scheduler's HeapHints asked for a heap the simulator
// cannot build — an unknown kind, a HeapDirOldest hint without a valid
// direction, a HeapRank hint without a Rank function, or a second hint
// for a heap already asked for. New and NewFlat reject it.
var ErrHeapHint = errors.New("sim: malformed heap hint")

// auxHeap is one scheduler-requested lazy min-heap over deliverable
// channel heads (see HeapHinted), for the head-keyed kinds HeapOldest,
// HeapNewest, HeapDirOldest and HeapRank. An entry is a key and a
// channel. It is live while its channel is deliverable and keyOf(c,
// head seq) equals its key; stale entries are dropped when they surface
// at the root. An equal key on the same channel picks the same channel,
// so the check stays exact even if two heads of one channel hash to the
// same HeapRank key. mark deduplicates pushes, so each (channel, head
// seq) pair is pushed at most once while its entry is in the heap.
type auxHeap struct {
	// HeapHint is the heap's kind, its direction (HeapDirOldest only; 0
	// for the kinds that cover every channel) and its rank function.
	HeapHint
	flip uint64 // keyOf's mask for the sequence-keyed kinds: ^0 for HeapNewest

	h    []auxEntry
	mark []uint64 // last head seq pushed per channel; 0 = none
}

// auxEntry is one lazy-heap candidate: its key and its channel.
type auxEntry struct {
	key uint64
	c   int
}

// less orders candidates by key, breaking ties toward the smaller
// channel id — exactly the winner of the ascending Deliverable() scan
// the heap replaces, so heap and scan pick identically even if two
// heads hash to the same rank. (The sequence-keyed kinds have unique
// keys, so the tie-break never fires there.)
func (x auxEntry) less(y auxEntry) bool {
	return x.key < y.key || x.key == y.key && x.c < y.c
}

// keyOf is a's key for the head seq of channel c.
func (a *auxHeap) keyOf(c int, seq uint64) uint64 {
	if a.Kind == HeapRank {
		return a.Rank(c, seq)
	}
	return seq ^ a.flip
}

// heavyHeap is the HeapHeaviest heap. Its key, the queued-pulse count,
// changes on every enqueue, which under lazy staleness would grow the
// heap by one junk entry per count move, so it is indexed instead: each
// channel owns at most one entry and key changes rewrite it.
//
// It also holds one hot entry outside h: the newest registration that
// beat the previous hot one. Under Heaviest a flushed backlog lands on
// the next channel, which is then the deepest queue, so the winner is
// usually the channel just registered; holding it outside h spares the
// O(log n) sift-up on arrival and the sift-down when it drains and
// leaves. The pick is the better of the hot entry and h's root. Every
// entry, hot or in h, goes stale only by losing deliverability or by a
// count or head move that its channel's next registration overwrites;
// stale entries are dropped when inspected.
type heavyHeap struct {
	h []heavyEntry
	// pos is heap index + 1 per channel, 0 when absent, -1 while the
	// channel is hot.
	pos []int32
	hot heavyEntry // the entry held outside h; c = -1 when none
}

// heavyEntry is one HeapHeaviest candidate: key is the complement of
// the queued-pulse count, seq the head sequence number it was
// registered under; both witness validity.
type heavyEntry struct {
	key uint64
	seq uint64
	c   int32
}

// less orders HeapHeaviest candidates by key; queue depths tie
// routinely, and the scan breaks those ties toward the oldest head and
// then the smaller channel id, so the heap does too.
func (x heavyEntry) less(y heavyEntry) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if x.seq != y.seq {
		return x.seq < y.seq
	}
	return x.c < y.c
}

// installHeapHints returns ErrHeapHint for a hint the simulator cannot
// serve and otherwise wires the aux heaps the scheduler asked for.
// Called from the constructors after options ran. In rescan mode it
// only validates, so the rescan reference rejects the same schedulers
// but stays a heap-free oracle: the optimized-vs-rescan differential
// then proves heap picks equal scan picks for every hinted scheduler.
func (s *Sim[M]) installHeapHints() error {
	hh, ok := s.sched.(HeapHinted)
	if !ok {
		return nil
	}
	hints := hh.HeapHints()
	for i, hint := range hints {
		switch {
		case hint.Kind < HeapOldest || hint.Kind > HeapHeaviest:
			return fmt.Errorf("%w: unknown kind %d", ErrHeapHint, hint.Kind)
		case hint.Kind == HeapDirOldest && hint.Dir != pulse.CW && hint.Dir != pulse.CCW:
			return fmt.Errorf("%w: HeapDirOldest with invalid direction %d", ErrHeapHint, hint.Dir)
		case hint.Kind == HeapRank && hint.Rank == nil:
			return fmt.Errorf("%w: HeapRank without a Rank function", ErrHeapHint)
		case slices.ContainsFunc(hints[:i], hint.sameHeap):
			return fmt.Errorf("%w: kind %d (direction %d) hinted twice", ErrHeapHint, hint.Kind, hint.Dir)
		}
	}
	if s.rescan {
		return nil
	}
	for _, hint := range hints {
		if hint.Kind == HeapHeaviest {
			s.heavy = &heavyHeap{pos: make([]int32, len(s.queues)), hot: heavyEntry{c: -1}}
			continue
		}
		a := auxHeap{HeapHint: hint, mark: make([]uint64, len(s.queues))}
		if hint.Kind != HeapDirOldest {
			a.Dir = 0
		}
		if hint.Kind == HeapNewest {
			a.flip = ^uint64(0)
		}
		s.aux = append(s.aux, a)
	}
	return nil
}

// sameHeap reports whether h and o ask for the same heap: the same kind
// and, for HeapDirOldest, the same direction.
func (h HeapHint) sameHeap(o HeapHint) bool {
	return h.Kind == o.Kind && (h.Kind != HeapDirOldest || h.Dir == o.Dir)
}

// auxPush registers the deliverable head (c, seq) in every lazy heap
// covering c. refreshChan calls it, and heavyPush, for every deliverable
// channel it refreshes; heavyPush also runs from the enqueue paths,
// since an enqueue onto a non-empty deliverable channel changes its
// count but not its head. That keeps a live entry for every deliverable
// channel in every heap covering it.
func (s *Sim[M]) auxPush(c int, seq uint64) {
	for i := range s.aux {
		a := &s.aux[i]
		if a.mark[c] == seq || a.Dir != 0 && s.chanDir[c] != a.Dir {
			continue
		}
		if len(a.h) >= 2*len(s.queues)+64 {
			// Stale entries drain only when they surface at the root; a
			// scheduler that stops consulting a heap (or consults another
			// first) would otherwise let them pile up across a long run.
			// Rebuilding from the live candidate set bounds the heap at
			// O(channels), amortized O(1) per push. The rebuild registers
			// (c, seq) itself.
			s.auxCompact(a)
			continue
		}
		a.mark[c] = seq
		a.push(auxEntry{key: a.keyOf(c, seq), c: c})
	}
}

// push adds e to a lazy heap, sifting a hole up from the new leaf.
func (a *auxHeap) push(e auxEntry) {
	h := append(a.h, e)
	i := len(h) - 1
	for ; i > 0 && e.less(h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = e
	a.h = h
}

// auxCompact rebuilds a lazy heap from exactly its live candidate set —
// every covered deliverable channel's current head — and resets the
// dedup marks to match. A compaction can fire from an enqueue inside a
// delivery's flush, while the channel that delivery popped empty is
// still in the deliverable set (afterHandler refreshes it next); that
// channel has no head to register, so empty queues are skipped.
func (s *Sim[M]) auxCompact(a *auxHeap) {
	clear(a.mark)
	a.h = a.h[:0]
	for c := range s.queues {
		q := &s.queues[c]
		if q.n == 0 || !s.deliv.get(c) || a.Dir != 0 && s.chanDir[c] != a.Dir {
			continue
		}
		seq := s.pool.front(q).seq
		a.mark[c] = seq
		a.push(auxEntry{key: a.keyOf(c, seq), c: c})
	}
}

// auxBest returns a lazy heap's best live channel, dropping stale
// roots on the way, or -1 when no covered channel is deliverable.
// Liveness reads the dedup mark, not the queue: every head move and
// deliverability change passes through refreshChan, and a mark is
// cleared only while its channel is undeliverable, so a deliverable
// channel's mark is its current head. An entry is live when its channel
// is deliverable and it owns the mark (the mark's key is its key); a
// dropped owner clears the mark, so that head can be pushed again.
func (s *Sim[M]) auxBest(a *auxHeap) int {
	for len(a.h) > 0 {
		top := a.h[0]
		owns := a.keyOf(top.c, a.mark[top.c]) == top.key
		if owns && s.deliv.get(top.c) {
			return top.c
		}
		if owns {
			a.mark[top.c] = 0
		}
		a.pop()
	}
	return -1
}

// pop removes the root bottom-up: the hole walks down the smaller
// children to a leaf, one comparison per level, and the last entry,
// which rarely climbs far, refills it from there.
func (a *auxHeap) pop() {
	h := a.h
	last := len(h) - 1
	e := h[last]
	i := 0
	for l := 1; l < last; i, l = l, 2*l+1 {
		if l+1 < last && h[l+1].less(h[l]) {
			l++
		}
		h[i] = h[l]
	}
	for ; i > 0 && e.less(h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = e
	a.h = h[:last]
}

// heavyPush is HeapHeaviest's registration of channel c's current
// count and head seq. The hot channel's own registration rewrites the
// hot entry in place. A registration that beats the hot entry takes its
// place (leaving h if it was there); the displaced entry moves into h
// if it is still valid, and is otherwise dropped — its channel lost
// deliverability or was just popped, and the handler's refreshChan
// re-registers it if it is deliverable. Any other registration is fixed
// into h.
func (s *Sim[M]) heavyPush(c int, seq uint64) {
	a := s.heavy
	e := heavyEntry{key: ^s.queues[c].tot, seq: seq, c: int32(c)}
	switch i := a.pos[c]; {
	case i < 0:
		a.hot = e
	case a.hot.c < 0 || e.less(a.hot):
		if i > 0 {
			a.removeAt(int(i - 1))
		}
		old := a.hot
		a.hot = e
		a.pos[c] = -1
		if old.c >= 0 {
			a.pos[old.c] = 0
			if s.heavyValid(old) {
				a.fix(old)
			}
		}
	default:
		a.fix(e)
	}
}

// fix inserts e's channel into h if absent, otherwise rewrites its
// single entry in place and restores heap order around it. Together
// with the hot entry, at most one entry per channel ever exists, so h
// never grows past the channel count and heavyBest never drains
// key-stale junk. The first insert reserves that bound, so h is
// allocated once and never regrows; reserving at construction instead
// would charge New for a heap that a run may never fill.
func (a *heavyHeap) fix(e heavyEntry) {
	if i := a.pos[e.c]; i > 0 {
		if a.h[i-1] == e {
			return
		}
		a.h[i-1] = e
		a.reheap(int(i - 1))
		return
	}
	if a.h == nil {
		a.h = make([]heavyEntry, 0, len(a.pos))
	}
	a.h = append(a.h, e)
	a.pos[e.c] = int32(len(a.h))
	a.siftUp(len(a.h) - 1)
}

// reheap restores heap order around index i after its entry changed.
func (a *heavyHeap) reheap(i int) {
	if i > 0 && a.h[i].less(a.h[(i-1)/2]) {
		a.siftUp(i)
	} else {
		a.siftDown(i)
	}
}

// siftUp moves entry i toward the root through a hole, maintaining pos.
func (a *heavyHeap) siftUp(i int) {
	h, e := a.h, a.h[i]
	for ; i > 0 && e.less(h[(i-1)/2]); i = (i - 1) / 2 {
		a.put(i, h[(i-1)/2])
	}
	a.put(i, e)
}

// siftDown moves entry i toward the leaves through a hole, maintaining
// pos.
func (a *heavyHeap) siftDown(i int) {
	h, e := a.h, a.h[i]
	for l := 2*i + 1; l < len(h); i, l = l, 2*l+1 {
		if l+1 < len(h) && h[l+1].less(h[l]) {
			l++
		}
		if !h[l].less(e) {
			break
		}
		a.put(i, h[l])
	}
	a.put(i, e)
}

// put stores e at index i and records its position.
func (a *heavyHeap) put(i int, e heavyEntry) {
	a.h[i] = e
	a.pos[e.c] = int32(i + 1)
}

// removeAt deletes entry i, maintaining pos.
func (a *heavyHeap) removeAt(i int) {
	h := a.h
	a.pos[h[i].c] = 0
	last := len(h) - 1
	a.h = h[:last]
	if i < last {
		a.put(i, h[last])
		a.reheap(i)
	}
}

// heavyValid reports whether e is still its channel's live candidate:
// deliverable, with the queued-pulse count and head it was registered
// under. The count is compared first, so an entry whose queue was just
// drained fails before its head is read.
func (s *Sim[M]) heavyValid(e heavyEntry) bool {
	q := &s.queues[e.c]
	return q.tot == ^e.key && s.deliv.get(int(e.c)) && s.pool.front(q).seq == e.seq
}

// heavyBest returns HeapHeaviest's best valid channel — the better of
// the hot entry and h's root — dropping stale entries on the way, or -1
// when nothing is deliverable.
func (s *Sim[M]) heavyBest() int {
	a := s.heavy
	if a.hot.c >= 0 && !s.heavyValid(a.hot) {
		a.pos[a.hot.c] = 0
		a.hot.c = -1
	}
	for len(a.h) > 0 && !s.heavyValid(a.h[0]) {
		a.removeAt(0)
	}
	switch {
	case len(a.h) > 0 && (a.hot.c < 0 || a.h[0].less(a.hot)):
		return int(a.h[0].c)
	case a.hot.c >= 0:
		return int(a.hot.c)
	}
	return -1
}
