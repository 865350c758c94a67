package buffer

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// The combined queue/managers (PushoutFIFO here, the class policies in
// classes.go) implement BOTH Manager and internal/sched's Scheduler and
// are wired into a link as its scheduler and its buffer manager at
// once: pushing out a packet that is already queued is a buffer
// decision no manager/scheduler split can express.

// queueAccounting is newAccounting for a combined queue/manager, which
// has no use for an empty buffer.
func queueAccounting(capacity units.Bytes, nflows int) accounting {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: non-positive capacity %v", capacity))
	}
	return newAccounting(capacity, nflows)
}

// preemptive is what the pushout policies share: the accounting, and the
// link's pushout callback (sched.PushoutNotifier).
type preemptive struct {
	accounting
	onPushout func(p *packet.Packet)
}

// SetOnPushout implements sched.PushoutNotifier: fn receives every
// pushed-out victim and owns it from then on.
func (b *preemptive) SetOnPushout(fn func(p *packet.Packet)) { b.onPushout = fn }

// pushOut takes a victim already taken out of the queue off the books
// and hands it to the link. It is not counted in buffer.drops: the link
// counts pushouts itself.
func (b *preemptive) pushOut(p *packet.Packet) {
	b.remove(p.Flow, p.Size)
	if b.onPushout != nil {
		b.onPushout(p)
	}
}

// holeFIFO is the FIFO queue of PushoutFIFO and ClassGreedy: a packet
// pushed out of the middle leaves a nil hole that Dequeue skips.
type holeFIFO struct {
	q       []*packet.Packet // nil entries are pushed-out holes
	head    int
	len     int
	backlog units.Bytes
}

// Enqueue implements sched.Scheduler.
func (f *holeFIFO) Enqueue(p *packet.Packet) {
	f.q = append(f.q, p)
	f.len++
	f.backlog += p.Size
}

// Dequeue implements sched.Scheduler, skipping holes.
func (f *holeFIFO) Dequeue() *packet.Packet {
	for f.head < len(f.q) {
		p := f.q[f.head]
		f.q[f.head] = nil
		f.head++
		if f.head > 64 && f.head*2 >= len(f.q) {
			n := copy(f.q, f.q[f.head:])
			f.q = f.q[:n]
			f.head = 0
		}
		if p != nil {
			f.len--
			f.backlog -= p.Size
			return p
		}
	}
	return nil
}

// Len implements sched.Scheduler (queued packets, excluding holes).
func (f *holeFIFO) Len() int { return f.len }

// Backlog implements sched.Scheduler. It excludes the packet in
// service, which the accounting still holds until the link releases it.
func (f *holeFIFO) Backlog() units.Bytes { return f.backlog }

// take removes the queued packet at index i, leaving a hole.
func (f *holeFIFO) take(i int) *packet.Packet {
	p := f.q[i]
	f.q[i] = nil
	f.len--
	f.backlog -= p.Size
	return p
}

// PushoutFIFO implements the protective pushout policy of the paper's
// reference [2] (Cidon, Guérin, Khamisy, "Protective buffer management
// policies"): a FIFO queue where an arriving packet of a flow below its
// fair share may, when the buffer is full, push out the most recent
// packet of the flow most in excess of its own share. Compared to the
// paper's threshold scheme it achieves tail-drop-level utilization with
// flow protection, at the cost of O(queue length) worst-case removal
// work — exactly the kind of per-packet cost §1 argues against at high
// speed.
type PushoutFIFO struct {
	preemptive
	holeFIFO
	shares []units.Bytes
}

// NewPushoutFIFO builds the combined queue/policy. shares[i] is flow
// i's guaranteed buffer share; Σshares should not exceed capacity for
// the protection property to hold.
func NewPushoutFIFO(capacity units.Bytes, shares []units.Bytes) *PushoutFIFO {
	for i, s := range shares {
		if s < 0 {
			panic(fmt.Sprintf("buffer: negative share %v for flow %d", s, i))
		}
	}
	return &PushoutFIFO{
		preemptive: preemptive{accounting: queueAccounting(capacity, len(shares))},
		shares:     append([]units.Bytes(nil), shares...),
	}
}

// Admit implements Manager. When the packet does not fit, a flow below
// its share pushes out the newest packet of the most over-share flow
// (repeatedly, until the arrival fits or no eligible victim remains).
// Victims already pushed out stay out even if the arrival is finally
// rejected.
func (po *PushoutFIFO) Admit(flow int, size units.Bytes) bool {
	for po.total+size > po.capacity {
		if po.occ[flow]+size > po.shares[flow] || !po.pushOutNewest(po.mostOverShare(flow)) {
			po.dropped(flow, size)
			return false
		}
	}
	po.add(flow, size)
	return true
}

// mostOverShare returns the flow with the largest occupancy excess over
// its share (excluding the arriving flow), or -1 when nobody is over.
func (po *PushoutFIFO) mostOverShare(except int) int {
	best := -1
	var bestExcess units.Bytes
	for i := range po.occ {
		if i == except {
			continue
		}
		excess := po.occ[i] - po.shares[i]
		if excess > 0 && (best < 0 || excess > bestExcess) {
			best = i
			bestExcess = excess
		}
	}
	return best
}

// pushOutNewest pushes out the victim flow's most recent queued packet;
// it fails for victim -1. The packet IN SERVICE cannot be pushed out (it
// has left the scheduler), so this can fail even when occupancy is
// positive.
func (po *PushoutFIFO) pushOutNewest(victim int) bool {
	if victim < 0 {
		return false
	}
	for i := len(po.q) - 1; i >= po.head; i-- {
		if p := po.q[i]; p != nil && p.Flow == victim {
			po.pushOut(po.take(i))
			return true
		}
	}
	return false
}
