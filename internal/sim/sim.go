// Package sim implements the discrete-event simulation kernel used by
// every experiment in this repository.
//
// The kernel is deliberately small: a simulator owns a current clock and
// a min-heap of pending events. Events scheduled for the same instant
// fire in the order they were scheduled (a monotone sequence number
// breaks ties), which makes FIFO queueing semantics exact and the whole
// simulation deterministic for a fixed seed.
//
// The implementation is allocation-free in steady state. Event payloads
// live in an index-managed arena with a free-list, the priority queue is
// a 4-ary heap of arena indices (shallower than a binary heap, so fewer
// cache-missing comparisons per sift), and At/After hand out value
// handles instead of heap pointers. Cancelled events are removed from
// the heap eagerly rather than lingering until popped, so a workload
// that schedules and cancels heavily (shapers, churn) keeps the queue
// exactly as large as its live event count.
//
// A simulator also owns the packet pool of everything that runs on its
// clock (NewPacket, Release), and an event can carry a packet in its
// arena slot (AfterPacket, AtStampedPacket), so a packet riding a delay
// costs neither a heap object nor a closure.
package sim

import (
	"fmt"
	"math"

	"bufqos/internal/metrics"
	"bufqos/internal/packet"
)

// node is one arena slot. The generation counter distinguishes a live
// occupant from a recycled slot, so stale Event handles stay inert.
//
// sched is the simulated time at which the event was scheduled. For
// At/After it is the kernel's clock at the call; AtStamped lets a
// caller supply it explicitly (the sharded topology engine stamps
// cross-shard arrivals with their upstream departure time, so a merged
// heap reproduces the order a single global kernel would have used).
//
// An event is either a plain callback (fn) or a packet-carrying one
// (pfn called with p); exactly one of fn and pfn is set while the slot
// is live.
type node struct {
	time  float64
	sched float64
	seq   uint64
	fn    func()
	pfn   func(*packet.Packet)
	p     *packet.Packet
	gen   uint32
	pos   int32 // heap position, -1 free, posInBatch while batch-dispatching
}

// run executes a callback read out of a node before its slot was freed.
func run(fn func(), pfn func(*packet.Packet), p *packet.Packet) {
	if pfn != nil {
		pfn(p)
		return
	}
	fn()
}

// posInBatch marks a node that has been popped into the current
// dispatch batch but has not executed yet. Cancelling such a node nils
// its callback instead of freeing the slot (the batch loop owns it).
const posInBatch int32 = -2

// Event is a value handle to a scheduled callback. The zero Event is
// inert; events are created through Simulator.At and Simulator.After.
type Event struct {
	s    *Simulator
	id   int32
	gen  uint32
	time float64
}

// Time returns the simulated time at which the event fires (or fired).
func (e Event) Time() float64 { return e.time }

// Cancel removes a pending event from the queue. Cancelling an event
// that already fired (or was already cancelled) is a no-op. An event
// that shares the current dispatch instant may be cancelled by an
// earlier event of the same batch: its callback is nilled and the batch
// loop skips it, preserving the exact semantics of one-at-a-time
// dispatch. Cancelling a packet-carrying event does not release its
// packet: the canceller is its owner again.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	n := &e.s.nodes[e.id]
	if n.gen != e.gen {
		return
	}
	if n.pos == posInBatch {
		if n.fn != nil || n.pfn != nil {
			n.fn, n.pfn, n.p = nil, nil, nil
			e.s.mCancelled.Inc()
		}
		return
	}
	if n.pos < 0 {
		return
	}
	e.s.removeAt(int(n.pos))
	e.s.freeNode(e.id)
	e.s.mCancelled.Inc()
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	if e.s == nil {
		return false
	}
	n := &e.s.nodes[e.id]
	return n.gen == e.gen && n.pos >= 0
}

// Simulator is a discrete-event simulator. The zero value is not ready
// for use; call New.
type Simulator struct {
	now    float64
	seq    uint64
	nsteps uint64
	nodes  []node
	free   []int32
	heap   []int32 // 4-ary min-heap of arena indices, ordered by (time, sched, seq)
	batch  []int32 // scratch for RunUntilBatch: one instant's events

	pool packet.Pool

	// Metric handles, nil unless Instrument was called. Nil handles
	// no-op, so the disabled path costs one branch per operation.
	mScheduled      *metrics.Counter
	mDispatched     *metrics.Counter
	mCancelled      *metrics.Counter
	mHeapDepth      *metrics.Gauge
	mPacketsLive    *metrics.Gauge
	mPacketsCreated *metrics.Counter
}

// New returns a simulator with its clock at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Instrument registers the kernel's metrics with r: events scheduled,
// dispatched, and cancelled (counters), the event-heap depth high-water
// (gauge), and the packet pool: packets out at once (gauge
// "sim.packets_live", whose high-water exceeding buffers plus packets
// in flight means a release is missing) and packets carved from the
// heap (counter "sim.packets_created"). A nil registry leaves the
// kernel uninstrumented, which is the free fast path.
func (s *Simulator) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	s.mScheduled = r.Counter("sim.events_scheduled")
	s.mDispatched = r.Counter("sim.events_dispatched")
	s.mCancelled = r.Counter("sim.events_cancelled")
	s.mHeapDepth = r.Gauge("sim.heap_depth")
	s.mPacketsLive = r.Gauge("sim.packets_live")
	s.mPacketsCreated = r.Counter("sim.packets_created")
}

// NewPacket returns a zeroed packet from the simulator's pool. It is
// the one way non-test code obtains a packet; packet.Packet documents
// who releases it.
func (s *Simulator) NewPacket() *packet.Packet {
	if s.mPacketsLive == nil {
		return s.pool.Get()
	}
	before := s.pool.Created()
	p := s.pool.Get()
	if grown := s.pool.Created() - before; grown > 0 {
		s.mPacketsCreated.Add(grown)
	}
	s.mPacketsLive.Set(s.pool.Live())
	return p
}

// Release returns p to the pool; the caller must be its last owner and
// must not touch it again. Releasing a packet twice panics.
func (s *Simulator) Release(p *packet.Packet) {
	s.pool.Put(p)
	if s.mPacketsLive != nil {
		s.mPacketsLive.Set(s.pool.Live())
	}
}

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Steps returns how many events have been executed so far. Useful for
// loop-detection in tests and for benchmark reporting.
func (s *Simulator) Steps() uint64 { return s.nsteps }

// Pending returns the number of events currently queued. Cancelled
// events leave the queue immediately, so the count is exact.
func (s *Simulator) Pending() int { return len(s.heap) }

// schedule is the one insertion path: it queues an arena slot due at t
// with scheduling stamp sched, holding either fn or pfn with its packet.
// It panics if t is in the past or not a finite number — such bugs would
// otherwise manifest as silently reordered events — and if the stamp is
// not finite or lies after t.
func (s *Simulator) schedule(t, sched float64, fn func(), pfn func(*packet.Packet), p *packet.Packet) Event {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: non-finite event time %v", t))
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, s.now))
	}
	if !(sched <= t) || math.IsInf(sched, -1) { // NaN fails the comparison too
		if math.IsNaN(sched) || math.IsInf(sched, 0) {
			panic(fmt.Sprintf("sim: non-finite scheduling stamp %v", sched))
		}
		panic(fmt.Sprintf("sim: scheduling stamp %v after event time %v", sched, t))
	}
	id := s.alloc()
	n := &s.nodes[id]
	n.time = t
	n.sched = sched
	n.seq = s.seq
	n.fn, n.pfn, n.p = fn, pfn, p
	s.seq++
	s.heap = append(s.heap, id)
	n.pos = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
	// Gauge.Set is not inlinable (CAS loop), so gate the pair on one
	// predictable branch instead of paying a call on the disabled path.
	if s.mScheduled != nil {
		s.mScheduled.Inc()
		s.mHeapDepth.Set(int64(len(s.heap)))
	}
	return Event{s: s, id: id, gen: n.gen, time: t}
}

// At schedules fn to run at absolute time t. It panics if t is in the
// past or not a finite number: such bugs would otherwise manifest as
// silently reordered events.
func (s *Simulator) At(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.schedule(t, s.now, fn, nil, nil)
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AtStamped schedules fn to run at absolute time t carrying an explicit
// scheduling stamp. Same-time events order by (sched, insertion), so an
// event injected from another simulator (a cross-shard arrival) can
// reproduce the position it would have had in a single global kernel:
// stamp it with the time its producing event executed. sched must not
// exceed t, and t obeys the same bounds as At.
//
// For events created by At/After, sched is the kernel clock at the
// call. Since the clock never runs backwards, a later insertion always
// has an equal-or-later stamp, so for purely local workloads the
// (time, sched, seq) order is identical to the historical (time, seq)
// order — the stamp only discriminates when merging work from elsewhere.
func (s *Simulator) AtStamped(t, sched float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.schedule(t, sched, fn, nil, nil)
}

// AfterPacket schedules fn(p) to run d seconds from now, ordered exactly
// as After would order it. The packet rides in the event's arena slot,
// so a handler built once (per link, per flow) serves every packet with
// no per-event closure. The event owns p until it fires.
func (s *Simulator) AfterPacket(d float64, fn func(*packet.Packet), p *packet.Packet) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtStampedPacket(s.now+d, s.now, fn, p)
}

// AtStampedPacket is AtStamped for a packet-carrying event: fn(p) runs
// at absolute time t, ordered by the explicit stamp sched.
func (s *Simulator) AtStampedPacket(t, sched float64, fn func(*packet.Packet), p *packet.Packet) Event {
	if fn == nil || p == nil {
		panic("sim: nil packet event callback or packet")
	}
	return s.schedule(t, sched, nil, fn, p)
}

// Reserve pre-sizes the arena, heap, and free list for at least n
// simultaneously pending events, so a large warm-up (a 100k-flow
// topology scheduling its sources) does no growth reallocations.
func (s *Simulator) Reserve(n int) {
	if cap(s.nodes) < n {
		nodes := make([]node, len(s.nodes), n)
		copy(nodes, s.nodes)
		s.nodes = nodes
	}
	if cap(s.heap) < n {
		heap := make([]int32, len(s.heap), n)
		copy(heap, s.heap)
		s.heap = heap
	}
	if cap(s.free) < n {
		free := make([]int32, len(s.free), n)
		copy(free, s.free)
		s.free = free
	}
}

// Step executes the next pending event and reports whether one was
// executed.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	id := s.heap[0]
	n := &s.nodes[id]
	fn, pfn, p := n.fn, n.pfn, n.p
	s.now = n.time
	s.nsteps++
	s.removeAt(0)
	s.freeNode(id)
	if s.mDispatched != nil {
		s.mDispatched.Inc()
	}
	run(fn, pfn, p)
	return true
}

// RunUntil executes events in order until the clock would pass t or the
// queue drains. Events scheduled exactly at t do fire. On return the
// clock reads exactly t (even if the queue drained earlier), so
// measurement intervals are well defined.
func (s *Simulator) RunUntil(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is in the past (now %v)", t, s.now))
	}
	s.RunUntilBatch(t)
}

// RunBefore executes events in order while they are strictly earlier
// than t, leaving the clock at the last executed event. Events at
// exactly t stay queued — the sharded engine runs each synchronization
// window [T, T+W) with RunBefore(T+W), so arrivals landing exactly on a
// window boundary execute in the next window, after the exchange that
// may deliver their equal-time cross-shard peers.
func (s *Simulator) RunBefore(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunBefore(%v) is in the past (now %v)", t, s.now))
	}
	s.dispatchBatches(t, true)
}

// RunUntilBatch is RunUntil's engine: it drains events in batches of
// identical timestamps, re-reading the heap root only between instants,
// and sets the clock to exactly t when done. Cancellations within a
// batch are honoured (the cancelled callback is skipped), so semantics
// match one-at-a-time dispatch exactly.
func (s *Simulator) RunUntilBatch(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntilBatch(%v) is in the past (now %v)", t, s.now))
	}
	s.dispatchBatches(t, false)
	s.now = t
}

// dispatchBatches pops and executes events up to t — strictly before t
// when exclusive — one instant at a time. All events of one instant are
// popped before any executes, so the heap is touched once per pop
// rather than once per pop-and-reinspect cycle in the caller's loop.
func (s *Simulator) dispatchBatches(t float64, exclusive bool) {
	mDispatched := s.mDispatched
	for len(s.heap) > 0 {
		id := s.heap[0]
		bt := s.nodes[id].time
		if bt > t || (exclusive && bt == t) {
			return
		}
		s.removeAt(0)
		if len(s.heap) == 0 || s.nodes[s.heap[0]].time != bt {
			// Fast path: the instant holds a single event — the normal
			// case in continuous time — so skip the batch bookkeeping.
			n := &s.nodes[id]
			fn, pfn, p := n.fn, n.pfn, n.p
			s.now = bt
			s.nsteps++
			s.freeNode(id)
			if mDispatched != nil {
				mDispatched.Inc()
			}
			run(fn, pfn, p)
			continue
		}
		// Gather the whole instant. New events scheduled at bt by the
		// batch's own callbacks are picked up by the next iteration, in
		// seq order after this batch — exactly as serial dispatch would.
		batch := s.batch[:0]
		s.batch = nil // re-entrant callbacks get fresh scratch
		s.nodes[id].pos = posInBatch
		batch = append(batch, id)
		for len(s.heap) > 0 {
			id := s.heap[0]
			n := &s.nodes[id]
			if n.time != bt {
				break
			}
			s.removeAt(0)
			n.pos = posInBatch
			batch = append(batch, id)
		}
		s.now = bt
		for _, id := range batch {
			n := &s.nodes[id]
			fn, pfn, p := n.fn, n.pfn, n.p
			s.freeNode(id)
			if fn == nil && pfn == nil {
				continue // cancelled by an earlier event of this batch
			}
			s.nsteps++
			if mDispatched != nil {
				mDispatched.Inc()
			}
			run(fn, pfn, p)
		}
		s.batch = batch[:0] // hand the scratch back for the next instant
	}
}

// Run executes events until the queue drains. It panics after maxSteps
// events as a runaway guard; pass 0 for the default of 1e9.
func (s *Simulator) Run(maxSteps uint64) {
	if maxSteps == 0 {
		maxSteps = 1e9
	}
	start := s.nsteps
	for s.Step() {
		if s.nsteps-start > maxSteps {
			panic("sim: event budget exhausted; likely an event loop")
		}
	}
}

// alloc returns a free arena slot, recycling before growing.
func (s *Simulator) alloc() int32 {
	if k := len(s.free); k > 0 {
		id := s.free[k-1]
		s.free = s.free[:k-1]
		return id
	}
	s.nodes = append(s.nodes, node{pos: -1})
	return int32(len(s.nodes) - 1)
}

// freeNode retires an arena slot: the generation bump invalidates any
// outstanding handles and the callback and packet references are
// dropped so the arena never pins dead closures or recycled packets.
func (s *Simulator) freeNode(id int32) {
	n := &s.nodes[id]
	n.fn, n.pfn, n.p = nil, nil, nil
	n.gen++
	n.pos = -1
	s.free = append(s.free, id)
}

// less orders arena indices by (time, sched, seq). For events scheduled
// through At/After the sched stamp is nondecreasing in seq (the clock
// never runs backwards), so this order coincides with the historical
// (time, seq) order; the stamp only matters for AtStamped injections.
func (s *Simulator) less(a, b int32) bool {
	na, nb := &s.nodes[a], &s.nodes[b]
	if na.time != nb.time {
		return na.time < nb.time
	}
	if na.sched != nb.sched {
		return na.sched < nb.sched
	}
	return na.seq < nb.seq
}

// removeAt deletes the heap entry at position i, restoring heap order.
func (s *Simulator) removeAt(i int) {
	last := len(s.heap) - 1
	moved := s.heap[last]
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	s.heap[i] = moved
	s.nodes[moved].pos = int32(i)
	if !s.siftDown(i) {
		s.siftUp(i)
	}
}

func (s *Simulator) siftUp(i int) {
	id := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(id, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.nodes[s.heap[i]].pos = int32(i)
		i = parent
	}
	s.heap[i] = id
	s.nodes[id].pos = int32(i)
}

// siftDown restores heap order below i and reports whether i moved.
func (s *Simulator) siftDown(i int) bool {
	id := s.heap[i]
	start := i
	n := len(s.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !s.less(s.heap[best], id) {
			break
		}
		s.heap[i] = s.heap[best]
		s.nodes[s.heap[i]].pos = int32(i)
		i = best
	}
	s.heap[i] = id
	s.nodes[id].pos = int32(i)
	return i != start
}
