package sched

import (
	"fmt"

	"bufqos/internal/packet"
)

// RPQ is a Rotating-Priority-Queues scheduler in the spirit of Wrege &
// Liebeherr (the paper's reference [10]): a small fixed set of FIFO
// queues approximates deadline ordering without any sorted data
// structure. The paper positions its FIFO+buffer-management scheme as
// the extreme point of this family (one queue); RPQ is the intermediate
// baseline and is included for the complexity-vs-guarantees ablation.
//
// Each flow is assigned a delay class c ∈ [0, P). Time is divided into
// rotation epochs of length Δ; a class-c packet arriving in epoch e is
// due in epoch e+c. The scheduler keeps one FIFO per future epoch (a
// ring of P slots) plus a "due" FIFO holding everything whose epoch has
// arrived. On each epoch boundary the next ring slot is merged into the
// due queue, preserving arrival order. Service takes from the due queue
// first and, when it is empty, from the earliest non-empty future slot
// (work conservation). All operations are O(1) per packet plus O(1)
// amortized per rotation; the FIFOs are lists in one flowQueues pool.
type RPQ struct {
	classes  []int
	interval float64
	nowFn    func() float64

	due   flowQueue
	ring  []flowQueue // ring[(epoch+c) % P] holds packets due in that epoch
	epoch int64
	flowQueues
}

// NewRPQ builds an RPQ scheduler. classes[i] is flow i's delay class,
// all of which must lie in [0, numClasses); interval is the rotation
// period Δ in seconds; now is the clock.
func NewRPQ(numClasses int, interval float64, now func() float64, classes []int) *RPQ {
	if numClasses <= 0 {
		panic(fmt.Sprintf("rpq: need at least one class, got %d", numClasses))
	}
	if interval <= 0 {
		panic(fmt.Sprintf("rpq: non-positive rotation interval %v", interval))
	}
	if now == nil {
		panic("rpq: nil clock")
	}
	for f, c := range classes {
		if c < 0 || c >= numClasses {
			panic(fmt.Sprintf("rpq: flow %d has class %d outside [0,%d)", f, c, numClasses))
		}
	}
	return &RPQ{
		classes:    append([]int(nil), classes...),
		interval:   interval,
		nowFn:      now,
		ring:       make([]flowQueue, numClasses),
		flowQueues: newFlowQueues(),
	}
}

// Epoch returns the current rotation epoch (after advancing the clock).
func (r *RPQ) Epoch() int64 {
	r.advance()
	return r.epoch
}

// advance merges ring slots into the due queue for every epoch boundary
// the clock has crossed. One turn of the ring merges every slot, so a
// longer jump skips the rest: a short interval costs no loop per epoch.
func (r *RPQ) advance() {
	target := int64(r.nowFn() / r.interval)
	for turn := 0; r.epoch < target; turn++ {
		if turn == len(r.ring) {
			r.epoch = target
			break
		}
		r.epoch++
		for slot := &r.ring[int(r.epoch)%len(r.ring)]; slot.n > 0; {
			r.push(&r.due, r.pop(slot), 0)
		}
	}
}

// Enqueue implements Scheduler.
func (r *RPQ) Enqueue(p *packet.Packet) {
	r.advance()
	q := &r.due
	if c := r.classes[p.Flow]; c > 0 {
		q = &r.ring[int(r.epoch+int64(c))%len(r.ring)]
	}
	r.push(q, p, 0)
}

// Dequeue implements Scheduler.
func (r *RPQ) Dequeue() *packet.Packet {
	r.advance()
	q := &r.due
	// Work conservation: pull from the earliest future epoch.
	for d := 1; q.n == 0 && d <= len(r.ring); d++ {
		q = &r.ring[int(r.epoch+int64(d))%len(r.ring)]
	}
	if q.n == 0 {
		return nil
	}
	return r.pop(q)
}
