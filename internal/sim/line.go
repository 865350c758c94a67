package sim

import (
	"fmt"
	"math"

	"bufqos/internal/packet"
)

// lineItem is one packet riding a delay line: the scheduling stamp and
// sequence number drawn when it was sent, and what runs it on arrival.
// Its due time is sched + the line's delay, the sum AfterPacket would
// have computed, so the item needs no time of its own.
type lineItem struct {
	sched float64
	seq   uint64
	fn    func(*packet.Packet)
	p     *packet.Packet
}

// DelayLine is a FIFO of packets that each arrive a fixed delay after
// they were sent: a link's propagation wire. Only the packet at the head
// of the line sits in the simulator's queue; the rest wait in the line's
// ring, so a wire holding hundreds of packets costs the queue one event.
//
// The line is exact. Send draws the packet's key (now+d, now, seq)
// exactly as AfterPacket(d, fn, p) would, and on one line those keys
// strictly increase: the clock never runs backwards, d is fixed, and seq
// grows with every scheduling. So the head is the least key of its line,
// the queue over line heads and ordinary events always holds the least
// pending key, and popping it — a k-way merge — dispatches exactly the
// sequence AfterPacket would. No other event's seq changes, and Steps
// counts each packet once, as before.
//
// A packet on a line cannot be cancelled: the line owns it until it
// arrives.
type DelayLine struct {
	s    *Simulator
	d    float64
	ring []lineItem
	head int   // ring index of the oldest packet
	n    int   // packets on the line
	id   int32 // the head event's arena slot, while n > 0
}

// NewDelayLines builds one delay line per entry of delays, each line's
// ring carved from one slab: line i starts with room for room[i]
// packets, or for one when room has no positive entry for it. A full
// line doubles its own ring. It panics on a negative, NaN or infinite
// delay.
func (s *Simulator) NewDelayLines(delays []float64, room []int) []DelayLine {
	size := func(i int) int {
		if i < len(room) && room[i] > 1 {
			return room[i]
		}
		return 1
	}
	total := 0
	for i, d := range delays {
		if !(d >= 0) || math.IsInf(d, 1) { // NaN fails the comparison too
			panic(fmt.Sprintf("sim: delay line %d has delay %v, want finite and non-negative", i, d))
		}
		total += size(i)
	}
	slab := make([]lineItem, total)
	lines := make([]DelayLine, len(delays))
	off := 0
	for i, d := range delays {
		r := size(i)
		lines[i] = DelayLine{s: s, d: d, ring: slab[off : off+r : off+r]}
		off += r
	}
	return lines
}

// Send puts p on the line: fn(p) runs the line's delay d from now,
// ordered exactly as AfterPacket(d, fn, p) would order it. The line
// owns p until then. Neither fn nor p may be nil.
func (l *DelayLine) Send(fn func(*packet.Packet), p *packet.Packet) {
	s := l.s
	if l.n == len(l.ring) {
		l.grow()
	}
	i := l.head + l.n
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	l.ring[i] = lineItem{sched: s.now, seq: s.seq, fn: fn, p: p}
	l.n++
	if l.n == 1 {
		// The key was valid when drawn, so the head skips schedule's
		// checks.
		l.id = s.alloc()
		n := &s.nodes[l.id]
		n.h = (*lineHead)(l)
		n.time, n.sched, n.seq = s.now+l.d, s.now, s.seq
		s.push(l.id)
	} else {
		s.lined++
	}
	s.seq++
	if s.mScheduled != nil {
		s.mScheduled.Inc()
		s.mHeapDepth.Set(int64(s.queued))
	}
}

// lineHead is the Handler of a line's head event. dispatch calls its
// Fire without freeing the event's slot: Fire takes the head packet
// off the line and queues the same slot again under the next packet's
// key, or, when the line is now empty, frees it, and then runs the
// packet.
type lineHead DelayLine

func (h *lineHead) Fire() {
	l := (*DelayLine)(h)
	s := l.s
	it := l.ring[l.head]
	l.ring[l.head] = lineItem{}
	l.head++
	if l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
	if l.n == 0 {
		s.freeNode(l.id)
	} else {
		next := &l.ring[l.head]
		s.lined--
		n := &s.nodes[l.id]
		n.time, n.sched, n.seq = next.sched+l.d, next.sched, next.seq
		s.push(l.id)
	}
	it.fn(it.p)
}

// grow doubles the ring, unwrapping it so the head is at index 0.
func (l *DelayLine) grow() {
	ring := make([]lineItem, 2*len(l.ring))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}
