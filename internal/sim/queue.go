package sim

import (
	"math"
	"math/bits"
)

// The event queue is a monotone radix queue (a radix heap: Ahuja,
// Mehlhorn, Orlin and Tarjan, 1990) threaded through the event arena.
//
// It rests on two facts. No event is due before the clock (schedule
// panics on t < now, and a delay line's keys strictly increase), and a
// non-negative float64 orders exactly like its IEEE bits read as a
// uint64. So an event's key is the bits of its time, with -0 mapped to
// +0, and the queue keeps last, the key it last moved down to, at or
// below the clock. An event goes into bucket 64 - LeadingZeros64(key ^
// last): bucket 0 holds the events due exactly at last, bucket b ≥ 1
// those whose key first differs from last in bit b-1. Every key in a
// lower bucket is less than every key in a higher one.
//
// Buckets 1 to 64 are doubly linked lists through the nodes, each with
// its least key kept beside it, so insertion and Cancel cost O(1).
// Bucket 0 is a 4-ary heap of node ids on (sched, seq), the order among
// events due at one instant. When bucket 0 runs dry and the lowest
// non-empty bucket's least key m is due, last moves to m and that
// bucket's events move down, each to a strictly lower bucket — those
// due at m into bucket 0 — so an event moves at most 64 times in its
// life, and in practice a handful. last never moves past a run's
// horizon: RunUntil and a sharded engine's injections may still insert
// any time at or after the clock.
//
// (time, sched, seq) is a total order, seq being unique, so the queue
// dispatches exactly the sequence any exact priority queue on it would.

// unqueued is the pos of a node in no bucket: free, or popped and
// running.
const unqueued = -1

// key is t's place in the queue's order: its IEEE bits with the sign
// cleared, which maps -0 to +0 and leaves every other time the queue
// can hold (none is negative) alone.
func key(t float64) uint64 { return math.Float64bits(t) &^ (1 << 63) }

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
	b := 63 - bits.LeadingZeros64(x) // bucket b+1 lives at index b
	n.pos = -2 - int32(b)
	n.prev, n.next = 0, s.heads[b]
	if n.next != 0 {
		s.nodes[n.next-1].prev = id + 1
	}
	s.heads[b] = id + 1
	s.mins[b] = max(s.mins[b], ^k)
	s.mask |= 1 << b
}

// unqueue takes the queued node id out of its bucket.
func (s *Simulator) unqueue(id int32) {
	s.queued--
	n := &s.nodes[id]
	if n.pos >= 0 {
		s.tieRemove(int(n.pos))
		return
	}
	b := -2 - n.pos
	bit := uint64(1) << b
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
		s.mask &^= bit
		s.stale &^= bit
		s.mins[b] = 0
	case ^key(n.time) == s.mins[b]:
		s.stale |= bit
	}
}

// pop removes and returns the earliest pending event if its key is
// below limit, and reports whether it did. When bucket 0 is empty and
// the lowest bucket's least key m is below limit, last moves to m and
// that bucket's events move down.
func (s *Simulator) pop(limit uint64) (int32, bool) {
	if len(s.ties) == 0 {
		if s.mask == 0 {
			return 0, false
		}
		b := bits.TrailingZeros64(s.mask)
		if s.stale&(1<<b) != 0 {
			s.rescan(b)
		}
		m := ^s.mins[b]
		if m >= limit {
			return 0, false
		}
		s.last = m
		e := s.heads[b]
		s.heads[b] = 0
		s.mins[b] = 0
		s.mask &^= 1 << b
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

// rescan finds bucket b+1's least key again after its holder was
// cancelled. It runs at most once per such Cancel, when the bucket is
// the lowest, so a run window with nothing due costs O(1).
func (s *Simulator) rescan(b int) {
	var m uint64
	for e := s.heads[b]; e != 0; e = s.nodes[e-1].next {
		m = max(m, ^key(s.nodes[e-1].time))
	}
	s.mins[b] = m
	s.stale &^= 1 << b
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
