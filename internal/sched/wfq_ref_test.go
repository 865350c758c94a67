package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// refWFQ is the sorted-queue WFQ as it stood on container/heap — flows
// boxed through heap.Interface, per-flow packet slices compacted after
// 64 dequeues — kept verbatim as the reference the flat WFQ must match
// dequeue for dequeue and virtual-time bit for bit (TestWFQMatchesReference).
type refWFQ struct {
	rate    units.Rate
	flows   []refFlow
	ready   refReadyHeap // non-empty packet queues, keyed by head finish tag
	gps     refGPSHeap   // GPS-backlogged flows, keyed by last finish tag
	v       float64      // GPS virtual time
	lastT   float64      // real time of the last virtual-time update
	sumPhi  float64      // Σφ over GPS-backlogged flows
	nowFn   func() float64
	len     int
	backlog units.Bytes
}

type refFlow struct {
	phi        float64 // weight in bits/s
	q          []refTagged
	qhead      int
	lastFinish float64 // finish tag of the flow's most recent arrival
	readyIdx   int     // index in ready heap, -1 if absent
	gpsIdx     int     // index in gps heap, -1 if absent
}

type refTagged struct {
	p      *packet.Packet
	finish float64
}

func newRefWFQ(rate units.Rate, now func() float64, weights []units.Rate) *refWFQ {
	if rate <= 0 {
		panic(fmt.Sprintf("wfq: non-positive link rate %v", rate))
	}
	if now == nil {
		panic("wfq: nil clock")
	}
	if len(weights) == 0 {
		panic("wfq: no flows")
	}
	w := &refWFQ{rate: rate, nowFn: now, flows: make([]refFlow, len(weights))}
	for i, phi := range weights {
		if phi <= 0 {
			panic(fmt.Sprintf("wfq: flow %d has non-positive weight %v", i, phi))
		}
		w.flows[i] = refFlow{phi: phi.BitsPerSecond(), readyIdx: -1, gpsIdx: -1}
	}
	return w
}

// VirtualTime returns the current GPS virtual time (after advancing it
// to the present); exposed for tests and instrumentation.
func (w *refWFQ) VirtualTime() float64 {
	w.advance(w.nowFn())
	return w.v
}

// advance moves the GPS virtual clock from w.lastT to real time t,
// replaying GPS departures that occur inside the interval.
func (w *refWFQ) advance(t float64) {
	if t < w.lastT {
		panic(fmt.Sprintf("wfq: clock moved backwards: %v < %v", t, w.lastT))
	}
	for w.lastT < t {
		if len(w.gps) == 0 {
			w.lastT = t
			return
		}
		f := w.gps[0]
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
		heap.Pop(&w.gps)
		w.sumPhi -= f.phi
	}
	// System idle in GPS (gps heap may still be empty): nothing to do.
	if len(w.gps) == 0 && w.len == 0 {
		// Both systems idle: rebase virtual time so tags do not grow
		// without bound over long runs.
		w.v = 0
		for i := range w.flows {
			w.flows[i].lastFinish = 0
		}
	}
}

// Enqueue implements Scheduler.
func (w *refWFQ) Enqueue(p *packet.Packet) {
	now := w.nowFn()
	w.advance(now)
	f := &w.flows[p.Flow]
	start := w.v
	if f.lastFinish > start {
		start = f.lastFinish
	}
	finish := start + p.Size.Bits()/f.phi

	wasGPSIdle := f.gpsIdx < 0
	f.lastFinish = finish
	f.q = append(f.q, refTagged{p: p, finish: finish})
	w.len++
	w.backlog += p.Size

	if wasGPSIdle {
		heap.Push(&w.gps, f)
		w.sumPhi += f.phi
	} else {
		heap.Fix(&w.gps, f.gpsIdx)
	}
	if f.readyIdx < 0 {
		heap.Push(&w.ready, f)
	}
	// Head tag unchanged if the flow already had packets, so no Fix is
	// needed for the ready heap in that case.
}

// Dequeue implements Scheduler.
func (w *refWFQ) Dequeue() *packet.Packet {
	if len(w.ready) == 0 {
		return nil
	}
	w.advance(w.nowFn())
	f := w.ready[0]
	tp := f.q[f.qhead]
	f.q[f.qhead].p = nil
	f.qhead++
	if f.qhead > 64 && f.qhead*2 >= len(f.q) {
		n := copy(f.q, f.q[f.qhead:])
		f.q = f.q[:n]
		f.qhead = 0
	}
	w.len--
	w.backlog -= tp.p.Size
	if f.qhead >= len(f.q) {
		heap.Pop(&w.ready)
	} else {
		heap.Fix(&w.ready, 0)
	}
	return tp.p
}

// Len implements Scheduler.
func (w *refWFQ) Len() int { return w.len }

// Backlog implements Scheduler.
func (w *refWFQ) Backlog() units.Bytes { return w.backlog }

// refReadyHeap orders flows by head-packet finish tag.
type refReadyHeap []*refFlow

func (h refReadyHeap) Len() int { return len(h) }
func (h refReadyHeap) Less(i, j int) bool {
	return h[i].q[h[i].qhead].finish < h[j].q[h[j].qhead].finish
}
func (h refReadyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].readyIdx = i
	h[j].readyIdx = j
}
func (h *refReadyHeap) Push(x any) {
	f := x.(*refFlow)
	f.readyIdx = len(*h)
	*h = append(*h, f)
}
func (h *refReadyHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.readyIdx = -1
	*h = old[:n-1]
	return f
}

// refGPSHeap orders GPS-backlogged flows by their last (largest) finish tag,
// i.e. the virtual time at which their GPS backlog clears.
type refGPSHeap []*refFlow

func (h refGPSHeap) Len() int           { return len(h) }
func (h refGPSHeap) Less(i, j int) bool { return h[i].lastFinish < h[j].lastFinish }
func (h refGPSHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].gpsIdx = i
	h[j].gpsIdx = j
}
func (h *refGPSHeap) Push(x any) {
	f := x.(*refFlow)
	f.gpsIdx = len(*h)
	*h = append(*h, f)
}
func (h *refGPSHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.gpsIdx = -1
	*h = old[:n-1]
	return f
}

// TestWFQMatchesReference drives the flat WFQ and refWFQ through the
// same random arrivals and departures on 1000 equal-weight flows of
// equal-size packets, where nearly every comparison is a tie: both must
// dequeue the same packets in the same order and keep the same GPS
// virtual time, bit for bit, after every operation. A last pass gives
// the flows four unequal, non-integer weights.
func TestWFQMatchesReference(t *testing.T) {
	const flows = 1000
	equal, mixed := make([]units.Rate, flows), make([]units.Rate, flows)
	for i := range equal {
		equal[i] = units.Mbps
		mixed[i] = units.Mbps * units.Rate(1+i%4) / 3
	}
	for seed, weights := range [][]units.Rate{equal, equal, equal, mixed} {
		rng := rand.New(rand.NewSource(int64(seed)))
		now := 0.0
		clock := func() float64 { return now }
		w := NewWFQ(units.MbitsPerSecond(100), clock, weights)
		ref := newRefWFQ(units.MbitsPerSecond(100), clock, weights)
		var seq uint64
		for op := 0; op < 200000; op++ {
			switch r := rng.Intn(100); {
			case r < 2:
				now += 0.01 // long enough to drain GPS now and then
			case r < 50:
				now += float64(rng.Intn(3)) * 1e-5
			}
			if rng.Intn(2) == 0 {
				flow := rng.Intn(flows)
				if rng.Intn(4) == 0 {
					flow %= 8 // a few flows build long queues
				}
				for _, s := range []Scheduler{w, ref} {
					s.Enqueue(&packet.Packet{Flow: flow, Size: 500, Seq: seq})
				}
				seq++
			} else {
				got, want := w.Dequeue(), ref.Dequeue()
				if (got == nil) != (want == nil) || got != nil && got.Seq != want.Seq {
					t.Fatalf("seed %d op %d: dequeued %v, reference %v", seed, op, got, want)
				}
			}
			if g, r := w.VirtualTime(), ref.VirtualTime(); math.Float64bits(g) != math.Float64bits(r) {
				t.Fatalf("seed %d op %d: virtual time %v, reference %v", seed, op, g, r)
			}
			if w.Len() != ref.Len() || w.Backlog() != ref.Backlog() {
				t.Fatalf("seed %d op %d: len/backlog %d/%v, reference %d/%v",
					seed, op, w.Len(), w.Backlog(), ref.Len(), ref.Backlog())
			}
		}
	}
}

// TestWFQNewFlowsWithoutAllocating: once the packet pool and both heaps
// have grown to a thousand-packet backlog, a round in which a thousand
// flows each queue their first packet allocates nothing — a flow's
// queue is a list over the shared pool, not a slice of its own.
func TestWFQNewFlowsWithoutAllocating(t *testing.T) {
	const perRound, rounds = 1000, 4 // one warm-up, AllocsPerRun's own, two measured
	weights := make([]units.Rate, perRound*rounds)
	for i := range weights {
		weights[i] = units.Mbps
	}
	now := 0.0
	w := NewWFQ(units.MbitsPerSecond(100), func() float64 { return now }, weights)
	pkts := make([]packet.Packet, perRound)
	base := 0
	round := func() {
		for i := range pkts {
			pkts[i] = packet.Packet{Flow: base + i, Size: 500}
			w.Enqueue(&pkts[i])
		}
		for w.Dequeue() != nil {
			now += 4e-5 // one transmission time
		}
		now++ // idle long enough for the GPS backlog to clear too
		base += perRound
	}
	round()
	if allocs := testing.AllocsPerRun(2, round); allocs != 0 {
		t.Errorf("%v allocs per round of %d first-time flows, want 0", allocs, perRound)
	}
	if base != len(weights) {
		t.Fatalf("ran %d rounds, want %d", base/perRound, rounds)
	}
}
