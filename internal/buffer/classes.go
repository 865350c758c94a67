package buffer

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// The class policies are the competitive policies of the value and
// multi-queue models over byte-sized packet queues. The scheme registry
// runs them on simulated links, and internal/online drives the same
// types with unit packets to measure them against the offline optimum.
// Class is a flow property: classOf[flow] gives the flow's service
// class, higher = more valuable.

// checkClasses validates a flow→class map against the class count and
// returns a copy.
func checkClasses(classOf []int, classes int) []int {
	for i, c := range classOf {
		if c < 0 || c >= classes {
			panic(fmt.Sprintf("buffer: flow %d class %d outside [0,%d)", i, c, classes))
		}
	}
	return append([]int(nil), classOf...)
}

// ClassGreedy is the preemptive greedy policy of the value model over
// a shared buffer: FIFO service, and an arrival that does not fit
// pushes out the newest queued packet of the lowest class strictly
// below its own (repeatedly, until it fits or no victim remains).
type ClassGreedy struct {
	preemptive
	holeFIFO
	classOf []int
}

// NewClassGreedy builds the combined queue/policy. classOf[i] is flow
// i's class within [0, classes).
func NewClassGreedy(capacity units.Bytes, classOf []int, classes int) *ClassGreedy {
	return &ClassGreedy{
		preemptive: preemptive{accounting: queueAccounting(capacity, len(classOf))},
		classOf:    checkClasses(classOf, classes),
	}
}

// Admit implements Manager. As with PushoutFIFO, victims already
// pushed out stay out even if the arrival is finally rejected.
func (g *ClassGreedy) Admit(flow int, size units.Bytes) bool {
	for g.total+size > g.capacity {
		if !g.pushOutLowest(g.classOf[flow]) {
			g.dropped(flow, size)
			return false
		}
	}
	g.add(flow, size)
	return true
}

// pushOutLowest pushes out the newest queued packet of the lowest class
// strictly below the given class. The packet in service has left the
// scheduler and cannot be pushed out.
func (g *ClassGreedy) pushOutLowest(below int) bool {
	victim, victimClass := -1, below
	for i := len(g.q) - 1; i >= g.head; i-- {
		// Scanning from the tail, the first packet seen of any class is
		// that class's newest, so only a strictly lower class updates the
		// choice.
		if p := g.q[i]; p != nil && g.classOf[p.Flow] < victimClass {
			victim, victimClass = i, g.classOf[p.Flow]
		}
	}
	if victim < 0 {
		return false
	}
	g.pushOut(g.take(victim))
	return true
}

// classQueues is one FIFO queue per class, the queue side of ClassSeg
// and MultiQueue.
type classQueues struct {
	classOf []int
	qs      [][]*packet.Packet
	queued  []units.Bytes // queued bytes per class (excludes the packet in service)
	len     int
	backlog units.Bytes
}

func newClassQueues(classOf []int, classes int) classQueues {
	return classQueues{
		classOf: checkClasses(classOf, classes),
		qs:      make([][]*packet.Packet, classes),
		queued:  make([]units.Bytes, classes),
	}
}

// Enqueue implements sched.Scheduler: the packet joins its class's
// queue.
func (cq *classQueues) Enqueue(p *packet.Packet) {
	c := cq.classOf[p.Flow]
	cq.qs[c] = append(cq.qs[c], p)
	cq.queued[c] += p.Size
	cq.len++
	cq.backlog += p.Size
}

// Len implements sched.Scheduler.
func (cq *classQueues) Len() int { return cq.len }

// Backlog implements sched.Scheduler.
func (cq *classQueues) Backlog() units.Bytes { return cq.backlog }

// popHead removes class c's oldest queued packet.
func (cq *classQueues) popHead(c int) *packet.Packet {
	p := cq.qs[c][0]
	cq.qs[c] = cq.qs[c][1:]
	cq.unqueue(c, p)
	return p
}

// popTail removes class c's newest queued packet.
func (cq *classQueues) popTail(c int) *packet.Packet {
	q := cq.qs[c]
	p := q[len(q)-1]
	cq.qs[c] = q[:len(q)-1]
	cq.unqueue(c, p)
	return p
}

func (cq *classQueues) unqueue(c int, p *packet.Packet) {
	cq.queued[c] -= p.Size
	cq.len--
	cq.backlog -= p.Size
}

// ClassSeg is the class-segregation policy of arXiv:1103.6049 over a
// shared buffer: one FIFO queue per class, strict-priority service
// (highest class first), and an overflowing arrival pushes out the
// newest packet of the lowest nonempty class strictly below its own.
type ClassSeg struct {
	preemptive
	classQueues
}

// NewClassSeg builds the combined queue/policy with one queue per
// class.
func NewClassSeg(capacity units.Bytes, classOf []int, classes int) *ClassSeg {
	return &ClassSeg{
		preemptive:  preemptive{accounting: queueAccounting(capacity, len(classOf))},
		classQueues: newClassQueues(classOf, classes),
	}
}

// Admit implements Manager.
func (cs *ClassSeg) Admit(flow int, size units.Bytes) bool {
	for cs.total+size > cs.capacity {
		if !cs.pushOutLowest(cs.classOf[flow]) {
			cs.dropped(flow, size)
			return false
		}
	}
	cs.add(flow, size)
	return true
}

// pushOutLowest pushes out the newest queued packet of the lowest
// nonempty class strictly below the given class.
func (cs *ClassSeg) pushOutLowest(below int) bool {
	for c := 0; c < below; c++ {
		if len(cs.qs[c]) > 0 {
			cs.pushOut(cs.popTail(c))
			return true
		}
	}
	return false
}

// Dequeue implements sched.Scheduler: strict priority, FIFO within a
// class.
func (cs *ClassSeg) Dequeue() *packet.Packet {
	for c := len(cs.qs) - 1; c >= 0; c-- {
		if len(cs.qs[c]) > 0 {
			return cs.popHead(c)
		}
	}
	return nil
}

// MultiQueue is the multi-queue switch model of arXiv:1007.1535 over a
// partitioned buffer: one FIFO queue per class with its own byte
// quota (capacity/classes), non-preemptive admission, and a service
// rule choosing the queue to drain — longest-queue-first, or the
// semi-greedy refinement (fullest queue above half quota, otherwise
// the oldest head-of-line packet).
type MultiQueue struct {
	accounting
	classQueues
	quota units.Bytes
	semi  bool
	seq   uint64
	seqs  [][]uint64 // arrival order of each class's queued packets
}

// NewMultiQueue builds the combined queue/policy. semi selects the
// semi-greedy service rule instead of plain longest-queue-first.
func NewMultiQueue(capacity units.Bytes, classOf []int, classes int, semi bool) *MultiQueue {
	return &MultiQueue{
		accounting:  queueAccounting(capacity, len(classOf)),
		classQueues: newClassQueues(classOf, classes),
		quota:       capacity / units.Bytes(classes),
		semi:        semi,
		seqs:        make([][]uint64, classes),
	}
}

// Admit implements Manager: the packet must fit in its class queue's
// quota (counting queued bytes; the packet in service has already freed
// its slot, as in the abstract model where transmission and arrivals
// share a step).
func (m *MultiQueue) Admit(flow int, size units.Bytes) bool {
	if m.queued[m.classOf[flow]]+size > m.quota {
		m.dropped(flow, size)
		return false
	}
	m.add(flow, size)
	return true
}

// Enqueue implements sched.Scheduler.
func (m *MultiQueue) Enqueue(p *packet.Packet) {
	c := m.classOf[p.Flow]
	m.seqs[c] = append(m.seqs[c], m.seq)
	m.seq++
	m.classQueues.Enqueue(p)
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
	m.seqs[pick] = m.seqs[pick][1:]
	return m.popHead(pick)
}
