package sched

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// EDF is an Earliest-Deadline-First scheduler: each flow carries a
// per-hop delay budget, an arriving packet is stamped with deadline
// arrival + budget, and the pending packet with the earliest deadline
// is transmitted first. Combined with per-flow shaping at the edge this
// is the "rate controlled Earliest Deadline First" discipline of the
// paper's reference [4] — one of the sorted-queue alternatives whose
// per-packet cost motivates the buffer-management approach.
//
// Packets of the same flow never reorder (their deadlines are
// monotone); the heap breaks deadline ties by arrival sequence so the
// discipline is deterministic.
type EDF struct {
	budgets []float64
	nowFn   func() float64
	tagQueue
}

// tagQueue serves queued packets in (tag, arrival) order: the half of
// EDF and Virtual Clock that does not depend on how a packet is tagged.
// The order is total, so no tie is left to the heap's arrangement.
type tagQueue struct {
	heap    tagHeap
	seq     uint64
	backlog units.Bytes
}

func (q *tagQueue) push(p *packet.Packet, tag float64) {
	q.heap.push(tagged{tag: tag, seq: q.seq, p: p})
	q.seq++
	q.backlog += p.Size
}

// Dequeue implements Scheduler.
func (q *tagQueue) Dequeue() *packet.Packet {
	if len(q.heap.e) == 0 {
		return nil
	}
	p := q.heap.pop().p
	q.backlog -= p.Size
	return p
}

// Len implements Scheduler.
func (q *tagQueue) Len() int { return len(q.heap.e) }

// Backlog implements Scheduler.
func (q *tagQueue) Backlog() units.Bytes { return q.backlog }

// NewEDF builds an EDF scheduler. budgets[i] is flow i's per-hop delay
// budget in seconds; now is the clock.
func NewEDF(now func() float64, budgets []float64) *EDF {
	if now == nil {
		panic("edf: nil clock")
	}
	if len(budgets) == 0 {
		panic("edf: no flows")
	}
	for f, b := range budgets {
		if b <= 0 {
			panic(fmt.Sprintf("edf: flow %d has non-positive delay budget %v", f, b))
		}
	}
	return &EDF{budgets: append([]float64(nil), budgets...), nowFn: now}
}

// Enqueue implements Scheduler.
func (e *EDF) Enqueue(p *packet.Packet) {
	e.push(p, e.nowFn()+e.budgets[p.Flow])
}

// VirtualClock implements the Virtual Clock discipline (the ancestor of
// the Leap-Forward Virtual Clock of reference [8]): each flow has a
// virtual clock advancing by L/ρᵢ per packet, lower-bounded by real
// time, and packets are served in stamp order. It provides rate
// guarantees like WFQ but without GPS virtual-time tracking; its known
// weakness — flows that idle can be punished later — is part of why
// fair-queueing variants exist.
type VirtualClock struct {
	rates  []float64 // bits/s
	clocks []float64
	nowFn  func() float64
	tagQueue
}

// NewVirtualClock builds a Virtual Clock scheduler with per-flow
// reserved rates.
func NewVirtualClock(now func() float64, rates []units.Rate) *VirtualClock {
	if now == nil {
		panic("vc: nil clock")
	}
	if len(rates) == 0 {
		panic("vc: no flows")
	}
	v := &VirtualClock{nowFn: now, rates: make([]float64, len(rates)), clocks: make([]float64, len(rates))}
	for i, r := range rates {
		if r <= 0 {
			panic(fmt.Sprintf("vc: flow %d has non-positive rate %v", i, r))
		}
		v.rates[i] = r.BitsPerSecond()
	}
	return v
}

// Enqueue implements Scheduler.
func (v *VirtualClock) Enqueue(p *packet.Packet) {
	now := v.nowFn()
	if v.clocks[p.Flow] < now {
		v.clocks[p.Flow] = now
	}
	v.clocks[p.Flow] += p.Size.Bits() / v.rates[p.Flow]
	v.push(p, v.clocks[p.Flow])
}
