package sched

import (
	"fmt"

	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// WFQ is packetized Weighted Fair Queueing (PGPS): each flow has its own
// FIFO queue and a weight φᵢ, and the scheduler transmits the packet
// that would finish first in the fluid GPS reference system.
//
// The GPS virtual time V(t) is tracked exactly, not approximated: between
// scheduler events V advances at rate R/Σφ over the GPS-backlogged flows,
// and GPS departures inside an interval are replayed iteratively
// (Demers–Keshav–Shenker). A packet of flow i arriving at time t gets
//
//	S = max(V(t), F_prev(i)),  F = S + L/φᵢ
//
// and flows are served in increasing order of the head-packet finish tag.
//
// Weights are expressed in rate units (bits/s); the paper sets φᵢ to the
// flow's reserved token rate ρᵢ.
//
// Both sorted structures are tagHeaps, whose sifts resolve equal finish
// tags as container/heap's do; the per-flow queues are flowQueues, so
// neither a flow nor a queued packet costs an allocation.
type WFQ struct {
	rate   units.Rate
	flows  []wfqFlow
	ready  tagHeap // flows with queued packets, keyed by head finish tag
	gps    tagHeap // GPS-backlogged flows, keyed by last finish tag
	v      float64 // GPS virtual time
	lastT  float64 // real time of the last virtual-time update
	sumPhi float64 // Σφ over GPS-backlogged flows
	nowFn  func() float64
	flowQueues

	mAdvances *metrics.Counter // nil unless instrumented
}

// Instrument registers the GPS virtual-time advance counter
// ("sched.wfq.vt_advances": how often the virtual clock moved forward)
// with r. Multiple WFQ instances sharing a registry share the counter.
func (w *WFQ) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	w.mAdvances = r.Counter("sched.wfq.vt_advances")
}

type wfqFlow struct {
	phi        float64 // weight in bits/s
	lastFinish float64 // finish tag of the flow's most recent arrival
	q          flowQueue
}

// NewWFQ returns a WFQ scheduler for a link of the given rate. now is
// the clock (normally Simulator.Now), and weights[i] is flow i's weight
// in bits/s (the paper uses the reserved rate ρᵢ).
func NewWFQ(rate units.Rate, now func() float64, weights []units.Rate) *WFQ {
	if rate <= 0 {
		panic(fmt.Sprintf("wfq: non-positive link rate %v", rate))
	}
	if now == nil {
		panic("wfq: nil clock")
	}
	if len(weights) == 0 {
		panic("wfq: no flows")
	}
	w := &WFQ{rate: rate, nowFn: now, flows: make([]wfqFlow, len(weights)), flowQueues: newFlowQueues(),
		gps: tagHeap{pos: make([]int32, len(weights))}}
	for i, phi := range weights {
		if phi <= 0 {
			panic(fmt.Sprintf("wfq: flow %d has non-positive weight %v", i, phi))
		}
		w.flows[i].phi = phi.BitsPerSecond()
		w.gps.pos[i] = -1
	}
	return w
}

// VirtualTime returns the current GPS virtual time (after advancing it
// to the present); exposed for tests and instrumentation.
func (w *WFQ) VirtualTime() float64 {
	w.advance(w.nowFn())
	return w.v
}

// advance moves the GPS virtual clock from w.lastT to real time t,
// replaying GPS departures that occur inside the interval.
func (w *WFQ) advance(t float64) {
	if t < w.lastT {
		panic(fmt.Sprintf("wfq: clock moved backwards: %v < %v", t, w.lastT))
	}
	if w.lastT < t {
		w.mAdvances.Inc()
	}
	for w.lastT < t {
		if len(w.gps.e) == 0 {
			w.lastT = t
			return
		}
		f := &w.flows[w.gps.e[0].item]
		// Real time needed for V to reach the next GPS flow-departure.
		dt := (f.lastFinish - w.v) * w.sumPhi / w.rate.BitsPerSecond()
		if w.lastT+dt > t {
			w.v += (t - w.lastT) * w.rate.BitsPerSecond() / w.sumPhi
			w.lastT = t
			return
		}
		w.v = f.lastFinish
		w.lastT += dt
		// The flow's GPS backlog clears exactly now.
		w.gps.pop()
		w.sumPhi -= f.phi
	}
	// System idle in GPS (gps heap may still be empty): nothing to do.
	if len(w.gps.e) == 0 && w.len == 0 {
		// Both systems idle: rebase virtual time so tags do not grow
		// without bound over long runs.
		w.v = 0
		for i := range w.flows {
			w.flows[i].lastFinish = 0
		}
	}
}

// Enqueue implements Scheduler.
func (w *WFQ) Enqueue(p *packet.Packet) {
	now := w.nowFn()
	w.advance(now)
	f := &w.flows[p.Flow]
	start := w.v
	if f.lastFinish > start {
		start = f.lastFinish
	}
	finish := start + p.Size.Bits()/f.phi

	f.lastFinish = finish
	w.push(&f.q, p, finish)

	if i := w.gps.pos[p.Flow]; i < 0 {
		w.gps.push(tagged{tag: finish, item: int32(p.Flow)})
		w.sumPhi += f.phi
	} else {
		// The flow's key only grew, so it can only sink (container/heap's
		// Fix would try the upward sift and stop at the first compare).
		w.gps.e[i].tag = finish
		w.gps.down(int(i), w.gps.e[i])
	}
	if f.q.n == 1 {
		w.ready.push(tagged{tag: finish, item: int32(p.Flow)})
	}
	// Head tag unchanged if the flow already had packets, so the ready
	// heap needs no fix in that case.
}

// Dequeue implements Scheduler.
func (w *WFQ) Dequeue() *packet.Packet {
	if len(w.ready.e) == 0 {
		return nil
	}
	w.advance(w.nowFn())
	f := &w.flows[w.ready.e[0].item]
	p := w.pop(&f.q)
	if f.q.n == 0 {
		w.ready.pop()
	} else {
		// Only the root's head ever leaves, so only the root's tag changes.
		w.ready.e[0].tag = w.front(&f.q).tag
		w.ready.down(0, w.ready.e[0])
	}
	return p
}

// FlowBacklog returns the queued packets of one flow.
func (w *WFQ) FlowBacklog(flow int) int { return int(w.flows[flow].q.n) }
