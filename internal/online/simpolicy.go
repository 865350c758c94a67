package online

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// The types below restate the abstract policies over byte-sized
// packet.Packet queues so the scheme registry can run them on any
// simulated link. Like sched.PushoutFIFO they implement BOTH the
// buffer-manager and the scheduler interface (preemption removes
// already-queued packets, which no manager/scheduler split can
// express) and are wired into a Link as both at once. Class is a flow
// property: classOf[flow] gives the flow's service class, higher =
// more valuable.
//
// Pushed-out victims are reported through the OnPushout callback so
// the Link can count them as drops (sched.PushoutNotifier).

// checkClasses validates a flow→class map against the class count.
func checkClasses(classOf []int, classes int) []int {
	if len(classOf) == 0 {
		panic("online: no flows")
	}
	for i, c := range classOf {
		if c < 0 || c >= classes {
			panic(fmt.Sprintf("online: flow %d class %d outside [0,%d)", i, c, classes))
		}
	}
	return append([]int(nil), classOf...)
}

// ClassGreedy is the preemptive greedy policy of the value model over
// a shared buffer: FIFO service, and an arrival that does not fit
// pushes out the newest queued packet of the lowest class strictly
// below its own (repeatedly, until it fits or no victim remains).
type ClassGreedy struct {
	capacity units.Bytes
	classOf  []int
	occ      []units.Bytes
	total    units.Bytes

	q       []*packet.Packet // nil entries are pushed-out holes
	head    int
	len     int
	backlog units.Bytes

	onPushout func(p *packet.Packet)
}

// NewClassGreedy builds the combined queue/policy. classOf[i] is flow
// i's class within [0, classes).
func NewClassGreedy(capacity units.Bytes, classOf []int, classes int) *ClassGreedy {
	if capacity <= 0 {
		panic(fmt.Sprintf("online: non-positive capacity %v", capacity))
	}
	return &ClassGreedy{
		capacity: capacity,
		classOf:  checkClasses(classOf, classes),
		occ:      make([]units.Bytes, len(classOf)),
	}
}

// SetOnPushout implements sched.PushoutNotifier.
func (g *ClassGreedy) SetOnPushout(fn func(p *packet.Packet)) { g.onPushout = fn }

// Admit implements buffer.Manager. As with PushoutFIFO, victims
// already pushed out stay out even if the arrival is ultimately
// rejected.
func (g *ClassGreedy) Admit(flow int, size units.Bytes) bool {
	for g.total+size > g.capacity {
		if !g.pushOutLowest(g.classOf[flow]) {
			return false
		}
	}
	g.occ[flow] += size
	g.total += size
	return true
}

// pushOutLowest evicts the newest queued packet of the lowest class
// strictly below the given class. The packet in service has left the
// scheduler and cannot be evicted.
func (g *ClassGreedy) pushOutLowest(below int) bool {
	victim, victimClass := -1, below
	for i := len(g.q) - 1; i >= g.head; i-- {
		p := g.q[i]
		if p == nil {
			continue
		}
		// Scanning from the tail, the first packet seen of any class is
		// that class's newest, so only a strictly lower class updates the
		// choice.
		if c := g.classOf[p.Flow]; c < victimClass {
			victim, victimClass = i, c
		}
	}
	if victim < 0 {
		return false
	}
	p := g.q[victim]
	g.q[victim] = nil
	g.len--
	g.backlog -= p.Size
	g.occ[p.Flow] -= p.Size
	g.total -= p.Size
	if g.onPushout != nil {
		g.onPushout(p)
	}
	return true
}

// Release implements buffer.Manager.
func (g *ClassGreedy) Release(flow int, size units.Bytes) {
	if g.occ[flow] < size {
		panic(fmt.Sprintf("online: flow %d releasing %v with only %v held", flow, size, g.occ[flow]))
	}
	g.occ[flow] -= size
	g.total -= size
}

// Occupancy implements buffer.Manager.
func (g *ClassGreedy) Occupancy(flow int) units.Bytes { return g.occ[flow] }

// Total implements buffer.Manager.
func (g *ClassGreedy) Total() units.Bytes { return g.total }

// Capacity implements buffer.Manager.
func (g *ClassGreedy) Capacity() units.Bytes { return g.capacity }

// Enqueue implements sched.Scheduler.
func (g *ClassGreedy) Enqueue(p *packet.Packet) {
	g.q = append(g.q, p)
	g.len++
	g.backlog += p.Size
}

// Dequeue implements sched.Scheduler (FIFO, skipping holes).
func (g *ClassGreedy) Dequeue() *packet.Packet {
	for g.head < len(g.q) {
		p := g.q[g.head]
		g.q[g.head] = nil
		g.head++
		if g.head > 64 && g.head*2 >= len(g.q) {
			n := copy(g.q, g.q[g.head:])
			g.q = g.q[:n]
			g.head = 0
		}
		if p != nil {
			g.len--
			g.backlog -= p.Size
			return p
		}
	}
	return nil
}

// Len implements sched.Scheduler.
func (g *ClassGreedy) Len() int { return g.len }

// Backlog implements sched.Scheduler.
func (g *ClassGreedy) Backlog() units.Bytes { return g.backlog }

// ClassSeg is the class-segregation policy of arXiv:1103.6049 over a
// shared buffer: one FIFO queue per class, strict-priority service
// (highest class first), and an overflowing arrival pushes out the
// newest packet of the lowest nonempty class strictly below its own.
type ClassSeg struct {
	capacity units.Bytes
	classOf  []int
	occ      []units.Bytes
	total    units.Bytes

	qs      [][]*packet.Packet
	len     int
	backlog units.Bytes

	onPushout func(p *packet.Packet)
}

// NewClassSeg builds the combined queue/policy with one queue per
// class.
func NewClassSeg(capacity units.Bytes, classOf []int, classes int) *ClassSeg {
	if capacity <= 0 {
		panic(fmt.Sprintf("online: non-positive capacity %v", capacity))
	}
	return &ClassSeg{
		capacity: capacity,
		classOf:  checkClasses(classOf, classes),
		occ:      make([]units.Bytes, len(classOf)),
		qs:       make([][]*packet.Packet, classes),
	}
}

// SetOnPushout implements sched.PushoutNotifier.
func (cs *ClassSeg) SetOnPushout(fn func(p *packet.Packet)) { cs.onPushout = fn }

// Admit implements buffer.Manager.
func (cs *ClassSeg) Admit(flow int, size units.Bytes) bool {
	for cs.total+size > cs.capacity {
		if !cs.pushOutLowest(cs.classOf[flow]) {
			return false
		}
	}
	cs.occ[flow] += size
	cs.total += size
	return true
}

// pushOutLowest evicts the newest queued packet of the lowest nonempty
// class strictly below the given class.
func (cs *ClassSeg) pushOutLowest(below int) bool {
	for c := 0; c < below; c++ {
		q := cs.qs[c]
		if len(q) == 0 {
			continue
		}
		p := q[len(q)-1]
		cs.qs[c] = q[:len(q)-1]
		cs.len--
		cs.backlog -= p.Size
		cs.occ[p.Flow] -= p.Size
		cs.total -= p.Size
		if cs.onPushout != nil {
			cs.onPushout(p)
		}
		return true
	}
	return false
}

// Release implements buffer.Manager.
func (cs *ClassSeg) Release(flow int, size units.Bytes) {
	if cs.occ[flow] < size {
		panic(fmt.Sprintf("online: flow %d releasing %v with only %v held", flow, size, cs.occ[flow]))
	}
	cs.occ[flow] -= size
	cs.total -= size
}

// Occupancy implements buffer.Manager.
func (cs *ClassSeg) Occupancy(flow int) units.Bytes { return cs.occ[flow] }

// Total implements buffer.Manager.
func (cs *ClassSeg) Total() units.Bytes { return cs.total }

// Capacity implements buffer.Manager.
func (cs *ClassSeg) Capacity() units.Bytes { return cs.capacity }

// Enqueue implements sched.Scheduler.
func (cs *ClassSeg) Enqueue(p *packet.Packet) {
	c := cs.classOf[p.Flow]
	cs.qs[c] = append(cs.qs[c], p)
	cs.len++
	cs.backlog += p.Size
}

// Dequeue implements sched.Scheduler: strict priority, FIFO within a
// class.
func (cs *ClassSeg) Dequeue() *packet.Packet {
	for c := len(cs.qs) - 1; c >= 0; c-- {
		if len(cs.qs[c]) == 0 {
			continue
		}
		p := cs.qs[c][0]
		cs.qs[c] = cs.qs[c][1:]
		cs.len--
		cs.backlog -= p.Size
		return p
	}
	return nil
}

// Len implements sched.Scheduler.
func (cs *ClassSeg) Len() int { return cs.len }

// Backlog implements sched.Scheduler.
func (cs *ClassSeg) Backlog() units.Bytes { return cs.backlog }

// MultiQueue is the multi-queue switch model of arXiv:1007.1535 over a
// partitioned buffer: one FIFO queue per class with its own byte
// quota (capacity/classes), non-preemptive admission, and a service
// rule choosing the queue to drain — longest-queue-first, or the
// semi-greedy refinement (fullest queue above half quota, otherwise
// the oldest head-of-line packet).
type MultiQueue struct {
	capacity units.Bytes
	quota    units.Bytes
	semi     bool
	classOf  []int
	occ      []units.Bytes
	total    units.Bytes

	qs      [][]*packet.Packet
	queued  []units.Bytes // queued bytes per class (excludes in service)
	seq     uint64
	seqs    [][]uint64
	len     int
	backlog units.Bytes
}

// NewMultiQueue builds the combined queue/policy. semi selects the
// semi-greedy service rule instead of plain longest-queue-first.
func NewMultiQueue(capacity units.Bytes, classOf []int, classes int, semi bool) *MultiQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("online: non-positive capacity %v", capacity))
	}
	return &MultiQueue{
		capacity: capacity,
		quota:    capacity / units.Bytes(classes),
		semi:     semi,
		classOf:  checkClasses(classOf, classes),
		occ:      make([]units.Bytes, len(classOf)),
		qs:       make([][]*packet.Packet, classes),
		queued:   make([]units.Bytes, classes),
		seqs:     make([][]uint64, classes),
	}
}

// Admit implements buffer.Manager: the packet must fit in its class
// queue's quota (counting queued bytes; the packet in service has
// already freed its slot, as in the abstract model where transmission
// and arrivals share a step).
func (m *MultiQueue) Admit(flow int, size units.Bytes) bool {
	if m.queued[m.classOf[flow]]+size > m.quota {
		return false
	}
	m.occ[flow] += size
	m.total += size
	return true
}

// Release implements buffer.Manager.
func (m *MultiQueue) Release(flow int, size units.Bytes) {
	if m.occ[flow] < size {
		panic(fmt.Sprintf("online: flow %d releasing %v with only %v held", flow, size, m.occ[flow]))
	}
	m.occ[flow] -= size
	m.total -= size
}

// Occupancy implements buffer.Manager.
func (m *MultiQueue) Occupancy(flow int) units.Bytes { return m.occ[flow] }

// Total implements buffer.Manager.
func (m *MultiQueue) Total() units.Bytes { return m.total }

// Capacity implements buffer.Manager.
func (m *MultiQueue) Capacity() units.Bytes { return m.capacity }

// Enqueue implements sched.Scheduler.
func (m *MultiQueue) Enqueue(p *packet.Packet) {
	c := m.classOf[p.Flow]
	m.qs[c] = append(m.qs[c], p)
	m.seqs[c] = append(m.seqs[c], m.seq)
	m.seq++
	m.queued[c] += p.Size
	m.len++
	m.backlog += p.Size
}

// Dequeue implements sched.Scheduler.
func (m *MultiQueue) Dequeue() *packet.Packet {
	if m.len == 0 {
		return nil
	}
	pick := -1
	if m.semi {
		for c := range m.qs {
			if 2*m.queued[c] > m.quota && (pick < 0 || m.queued[c] > m.queued[pick]) {
				pick = c
			}
		}
		if pick < 0 {
			for c := range m.qs {
				if len(m.qs[c]) > 0 && (pick < 0 || m.seqs[c][0] < m.seqs[pick][0]) {
					pick = c
				}
			}
		}
	} else {
		for c := range m.qs {
			if len(m.qs[c]) > 0 && (pick < 0 || m.queued[c] > m.queued[pick]) {
				pick = c
			}
		}
	}
	p := m.qs[pick][0]
	m.qs[pick] = m.qs[pick][1:]
	m.seqs[pick] = m.seqs[pick][1:]
	m.queued[pick] -= p.Size
	m.len--
	m.backlog -= p.Size
	return p
}

// Len implements sched.Scheduler.
func (m *MultiQueue) Len() int { return m.len }

// Backlog implements sched.Scheduler.
func (m *MultiQueue) Backlog() units.Bytes { return m.backlog }
