package sched

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// DRR is Deficit Round Robin — the classic O(1) approximation of fair
// queueing. It is the other 1990s answer to the scalability problem the
// paper attacks: where the paper keeps FIFO and moves fairness into
// buffer management, DRR keeps per-flow queues but replaces the sorted
// list with a quantum-based round robin. Included as an ablation
// baseline so the two O(1) designs can be compared directly.
//
// Weights set per-flow quanta proportionally; the smallest weight gets
// one MTU per round so every backlogged flow can always send.
type DRR struct {
	flows  []drrFlow
	active []int // round-robin list of backlogged flow indices
	cursor int
	flowQueues
}

type drrFlow struct {
	quantum float64
	deficit float64
	q       flowQueue
	active  bool
}

// NewDRR builds a DRR scheduler. weights are relative (the paper would
// use token rates); mtu scales the quanta so the minimum-weight flow
// receives one MTU per round.
func NewDRR(weights []units.Rate, mtu units.Bytes) *DRR {
	if len(weights) == 0 {
		panic("drr: no flows")
	}
	if mtu <= 0 {
		panic(fmt.Sprintf("drr: invalid MTU %v", mtu))
	}
	minW := weights[0]
	for _, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("drr: non-positive weight %v", w))
		}
		if w < minW {
			minW = w
		}
	}
	d := &DRR{flows: make([]drrFlow, len(weights)), flowQueues: newFlowQueues()}
	for i, w := range weights {
		d.flows[i].quantum = float64(mtu) * w.BitsPerSecond() / minW.BitsPerSecond()
	}
	return d
}

// Enqueue implements Scheduler.
func (d *DRR) Enqueue(p *packet.Packet) {
	f := &d.flows[p.Flow]
	d.push(&f.q, p, 0)
	if !f.active {
		f.active = true
		f.deficit = 0
		d.active = append(d.active, p.Flow)
	}
}

// Dequeue implements Scheduler.
func (d *DRR) Dequeue() *packet.Packet {
	if d.len == 0 {
		return nil
	}
	for {
		if d.cursor >= len(d.active) {
			d.cursor = 0
		}
		f := &d.flows[d.active[d.cursor]]
		head := d.front(&f.q).p
		if f.deficit < float64(head.Size) {
			// New visit: grant the quantum and move on if still short.
			f.deficit += f.quantum
			if f.deficit < float64(head.Size) {
				d.cursor++
				continue
			}
		}
		f.deficit -= float64(head.Size)
		d.pop(&f.q)
		switch {
		case f.q.n == 0:
			// Emptied: retire the flow from the round. The cursor now
			// names its successor.
			f.active = false
			d.active = append(d.active[:d.cursor], d.active[d.cursor+1:]...)
		case f.deficit < float64(d.front(&f.q).p.Size):
			// Deficit exhausted: this flow's turn in the round is over.
			d.cursor++
		}
		return head
	}
}
