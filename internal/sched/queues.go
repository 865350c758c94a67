package sched

import (
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// flowQueues holds the FIFO queues of a multi-queue scheduler (WFQ's and
// DRR's per flow, RPQ's per epoch) in one pooled node array: a queued
// packet takes a node, a dequeued one returns it to a free list, and each
// queue is a singly linked list of node indices. An empty queue owns
// nothing, so a scheduler over thousands of flows costs no allocation per
// flow, and the array grows only with the peak total backlog. Embedded,
// it counts the scheduler's packets and bytes.
type flowQueues struct {
	nodes   []queued
	free    int32 // first free node, -1 when the free list is empty
	len     int
	backlog units.Bytes
}

// queued is one packet in a queue, with the scheduler's tag for it
// (WFQ's finish tag; DRR and RPQ leave it zero).
type queued struct {
	p    *packet.Packet
	tag  float64
	next int32
}

// flowQueue is one FIFO: its first and last node and its length.
// head and tail are meaningful only while n > 0.
type flowQueue struct {
	head, tail, n int32
}

func newFlowQueues() flowQueues { return flowQueues{free: -1} }

// push appends p, tagged tag, to q.
func (s *flowQueues) push(q *flowQueue, p *packet.Packet, tag float64) {
	id := s.free
	if id >= 0 {
		s.free = s.nodes[id].next
	} else {
		id = int32(len(s.nodes))
		s.nodes = append(s.nodes, queued{})
	}
	s.nodes[id] = queued{p: p, tag: tag}
	if q.n == 0 {
		q.head = id
	} else {
		s.nodes[q.tail].next = id
	}
	q.tail = id
	q.n++
	s.len++
	s.backlog += p.Size
}

// front returns q's first node; q must not be empty.
func (s *flowQueues) front(q *flowQueue) *queued { return &s.nodes[q.head] }

// pop removes and returns q's first packet; q must not be empty.
func (s *flowQueues) pop(q *flowQueue) *packet.Packet {
	id := q.head
	n := &s.nodes[id]
	p := n.p
	q.head = n.next
	q.n--
	n.p = nil
	n.next = s.free
	s.free = id
	s.len--
	s.backlog -= p.Size
	return p
}

// Len implements Scheduler.
func (s *flowQueues) Len() int { return s.len }

// Backlog implements Scheduler.
func (s *flowQueues) Backlog() units.Bytes { return s.backlog }

// tagHeap is a typed binary min-heap, boxing nothing, ordered by (tag,
// seq): WFQ's ready heap (head finish tag, flow) and GPS heap (last
// finish tag, flow) with seq zero, and the EDF and Virtual Clock queues
// (deadline or stamp, arrival sequence, packet). Its sifts are
// container/heap's up and down with the sifted entry held aside instead
// of swapped: the same comparisons, so entries with equal keys end where
// container/heap would leave them.
// When pos is set, it records every item's position, -1 once popped.
type tagHeap struct {
	e   []tagged
	pos []int32
}

type tagged struct {
	tag  float64
	seq  uint64
	p    *packet.Packet
	item int32
}

func (a *tagged) before(b *tagged) bool {
	return a.tag < b.tag || a.tag == b.tag && a.seq < b.seq
}

func (h *tagHeap) push(x tagged) {
	h.e = append(h.e, x)
	h.up(len(h.e)-1, x)
}

// pop removes and returns the least entry; h must not be empty.
func (h *tagHeap) pop() tagged {
	top := h.e[0]
	last := len(h.e) - 1
	x := h.e[last]
	h.e[last] = tagged{}
	h.e = h.e[:last]
	if last > 0 {
		h.down(0, x)
	}
	if h.pos != nil {
		h.pos[top.item] = -1
	}
	return top
}

func (h *tagHeap) place(i int, x tagged) {
	h.e[i] = x
	if h.pos != nil {
		h.pos[x.item] = int32(i)
	}
}

// up places x in the hole at j or above it.
func (h *tagHeap) up(j int, x tagged) {
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(&h.e[i]) {
			break
		}
		h.place(j, h.e[i])
		j = i
	}
	h.place(j, x)
}

// down places x in the hole at i or below it.
func (h *tagHeap) down(i int, x tagged) {
	n := len(h.e)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.e[j2].before(&h.e[j]) {
			j = j2
		}
		if !h.e[j].before(&x) {
			break
		}
		h.place(i, h.e[j])
		i = j
	}
	h.place(i, x)
}
