package sim

import (
	"math"
	"math/bits"
)

// The event queue is a monotone radix queue with byte-wide digits (the
// K-ary radix heap of Ahuja, Mehlhorn, Orlin and Tarjan, 1990) threaded
// through the event arena.
//
// It rests on two facts. No event is due before the clock (schedule
// panics on t < now, and a delay line's keys strictly increase), and a
// non-negative float64 orders exactly like its IEEE bits read as a
// uint64. So an event's key is the bits of its time, with -0 mapped to
// +0, and the queue keeps last, the key it last moved down to, at or
// below the clock. An event due exactly at last goes into bucket 0, the
// ties; one whose key k first differs from last in byte j goes into
// digit bucket j·256 + (byte j of k). That digit exceeds last's byte j,
// so it is never 0 and no digit bucket is bucket 0. Every key in a lower
// bucket is less than every key in a higher one.
//
// The 2048 digit buckets are doubly linked lists through the nodes,
// each with its least key kept beside it, so insertion and Cancel cost
// O(1); 32 mask words and a summary word over them find the lowest
// non-empty one in two bit scans. Bucket 0 is a 4-ary heap of node ids
// on (sched, seq), the order among events due at one instant. When
// bucket 0 runs dry and the lowest non-empty bucket's least key m is
// due, last moves to m and that bucket's events move down, each to a
// bucket of a lower byte — those due at m into bucket 0 — so an event
// moves at most 8 times in its life; the benchmark's workloads measure
// 0.35 to 1.25. last never moves past a run's horizon: RunUntil and a
// sharded engine's injections may still insert any time at or after the
// clock.
//
// (time, sched, seq) is a total order, seq being unique, so the queue
// dispatches exactly the sequence any exact priority queue on it would.

// The digit buckets: 8 bytes of 256 digits, a mask word per 64.
const (
	nbuckets  = 8 * 256
	maskWords = nbuckets / 64
)

// unqueued is the pos of a node in no bucket: free, or popped and
// running.
const unqueued = -1

// key is t's place in the queue's order: its IEEE bits with the sign
// cleared, which maps -0 to +0 and leaves every other time the queue
// can hold (none is negative) alone.
func key(t float64) uint64 { return math.Float64bits(t) &^ (1 << 63) }

// bucket is the digit bucket of key k, which differs from last in x =
// k ^ last != 0: the byte j of x's highest set bit, and k's digit there.
// The mask changes no value; it spares the bucket arrays' bounds checks.
func bucket(k, x uint64) int {
	shift := uint(63-bits.LeadingZeros64(x)) &^ 7
	return (int(shift)<<5 | int(k>>shift&0xff)) & (nbuckets - 1)
}

// push queues node id under its time.
func (s *Simulator) push(id int32) {
	s.queued++
	s.place(id)
}

// place puts node id into the bucket its time belongs in.
func (s *Simulator) place(id int32) {
	n := &s.nodes[id]
	k := key(n.time)
	x := k ^ s.last
	if x == 0 {
		s.ties = append(s.ties, id)
		s.tieUp(len(s.ties)-1, id)
		return
	}
	b := bucket(k, x)
	n.pos = -2 - int32(b)
	n.prev, n.next = 0, s.heads[b]
	if n.next != 0 {
		s.nodes[n.next-1].prev = id + 1
	}
	s.heads[b] = id + 1
	s.mins[b] = max(s.mins[b], ^k)
	s.mask[b>>6] |= 1 << (b & 63)
	s.summary |= 1 << (b >> 6)
}

// unqueue takes the queued node id out of its bucket.
func (s *Simulator) unqueue(id int32) {
	s.queued--
	n := &s.nodes[id]
	if n.pos >= 0 {
		s.tieRemove(int(n.pos))
		return
	}
	b := int(-2-n.pos) & (nbuckets - 1)
	if n.prev != 0 {
		s.nodes[n.prev-1].next = n.next
	} else {
		s.heads[b] = n.next
	}
	if n.next != 0 {
		s.nodes[n.next-1].prev = n.prev
	}
	switch {
	case s.heads[b] == 0:
		s.vacate(b)
	case ^key(n.time) == s.mins[b]:
		s.stale[b>>6] |= 1 << (b & 63)
	}
}

// vacate marks bucket b empty: no head, no least key, its mask and
// stale bits clear, and its word's summary bit clear with the word.
func (s *Simulator) vacate(b int) {
	w, bit := b>>6, uint64(1)<<(b&63)
	s.heads[b] = 0
	s.mins[b] = 0
	s.stale[w] &^= bit
	if s.mask[w] &^= bit; s.mask[w] == 0 {
		s.summary &^= 1 << w
	}
}

// pop removes and returns the earliest pending event if its key is
// below limit, and reports whether it did. When bucket 0 is empty and
// the lowest bucket's least key m is below limit, last moves to m and
// that bucket's events move down.
func (s *Simulator) pop(limit uint64) (int32, bool) {
	if len(s.ties) == 0 {
		if s.summary == 0 {
			return 0, false
		}
		w := bits.TrailingZeros32(s.summary)
		b := w<<6 | bits.TrailingZeros64(s.mask[w])
		if s.stale[w]&(1<<(b&63)) != 0 {
			s.rescan(b)
		}
		m := ^s.mins[b]
		if m >= limit {
			return 0, false
		}
		s.last = m
		e := s.heads[b]
		s.vacate(b)
		if n := &s.nodes[e-1]; n.next == 0 { // alone, so earliest
			n.pos = unqueued
			s.queued--
			return e - 1, true
		}
		for e != 0 {
			id := e - 1
			e = s.nodes[id].next
			s.place(id)
		}
	} else if s.last >= limit {
		return 0, false
	}
	id := s.ties[0]
	s.queued--
	s.tieRemove(0)
	return id, true
}

// rescan finds bucket b's least key again after its holder was
// cancelled. It runs at most once per such Cancel, when the bucket is
// the lowest, so a run window with nothing due costs O(1).
func (s *Simulator) rescan(b int) {
	var m uint64
	for e := s.heads[b]; e != 0; e = s.nodes[e-1].next {
		m = max(m, ^key(s.nodes[e-1].time))
	}
	s.mins[b] = m
	s.stale[b>>6] &^= 1 << (b & 63)
}

// tieBefore orders two events due at the same instant by (sched, seq).
// For events scheduled through At/After the stamp is nondecreasing in
// seq (the clock never runs backwards), so this is their historical
// insertion order; the stamp only matters for AtStampedPacket
// injections.
func (s *Simulator) tieBefore(a, b int32) bool {
	x, y := &s.nodes[a], &s.nodes[b]
	if x.sched != y.sched {
		return x.sched < y.sched
	}
	return x.seq < y.seq
}

// tieUp places id in bucket 0's hole at i or, moving the parents it
// precedes down, above it, recording every moved id's position in its
// node.
func (s *Simulator) tieUp(i int, id int32) {
	h := s.ties
	for i > 0 {
		parent := (i - 1) / 4
		if !s.tieBefore(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.nodes[h[i]].pos = int32(i)
		i = parent
	}
	h[i] = id
	s.nodes[id].pos = int32(i)
}

// tieRemove deletes bucket 0's entry at i, bottom-up: the hole descends
// along the least child to a leaf, and the last entry fills it and
// sifts up.
func (s *Simulator) tieRemove(i int) {
	s.nodes[s.ties[i]].pos = unqueued
	last := len(s.ties) - 1
	moved := s.ties[last]
	s.ties = s.ties[:last]
	if i == last {
		return
	}
	h := s.ties
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		best := first
		end := min(first+4, last)
		for c := first + 1; c < end; c++ {
			if s.tieBefore(h[c], h[best]) {
				best = c
			}
		}
		h[i] = h[best]
		s.nodes[h[i]].pos = int32(i)
		i = best
	}
	s.tieUp(i, moved)
}
