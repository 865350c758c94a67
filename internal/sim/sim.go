// Package sim implements the discrete-event simulation kernel used by
// every experiment in this repository.
//
// The kernel is deliberately small: a simulator owns a current clock and
// a queue of pending events. Events scheduled for the same instant
// fire in the order they were scheduled (a monotone sequence number
// breaks ties), which makes FIFO queueing semantics exact and the whole
// simulation deterministic for a fixed seed.
//
// The implementation is allocation-free in steady state. Event payloads
// live in an index-managed arena with a free list threaded through it,
// and At/After hand out value handles instead of heap pointers. The
// queue (queue.go) is a monotone radix queue with byte-wide digits over
// the same arena: no event is due before the clock, so an event's key is
// its time's IEEE bits, and its bucket is the highest byte in which that
// key differs from the last key the queue moved down to, and its digit
// there. An event moves down at most 8 times, on the benchmark's
// workloads 0.35 to 1.25 times. Buckets are linked lists through the
// arena nodes, so insertion and Cancel cost O(1) at any depth, and
// bucket 0, the events due at one instant, is a small heap on (stamp,
// sequence number). Cancelled events leave the queue
// eagerly rather than lingering until popped, so a workload that
// schedules and cancels heavily (shapers, churn, TCP timers) keeps the
// queue exactly as large as its live event count.
//
// A simulator also owns the packet pool of everything that runs on its
// clock (NewPacket, Release), and an event can carry a packet in its
// arena slot (AfterPacket, AtStampedPacket), so a packet riding a delay
// costs neither a heap object nor a closure. An event can likewise carry
// its receiver (AtHandler): per-flow objects built by the thousand in
// one slab re-arm themselves through a pointer to their own element,
// so building a flow costs no closure either.
//
// A packet crossing a fixed delay — a link's propagation wire — can
// instead ride a DelayLine (line.go): a FIFO ring whose head alone sits
// in the queue. Send draws the key AfterPacket would, (now+d, now, seq),
// and on one line those keys strictly increase (the clock never runs
// backwards, d is fixed, seq grows), so the queue over line heads and
// ordinary events is a k-way merge that dispatches exactly the sequence
// AfterPacket would, with the same Steps count. When a head fires, its
// event re-enters the queue under the next packet's key. A topology
// whose wires hold most of its pending packets keeps a queue as deep as
// its flows and links, not its packets in flight.
//
// Completions computed ahead of the clock (held.go) spend no event. A
// FIFO link knows each departure when it admits the packet, so it
// keeps its departures in a ring under the keys their events would
// have had, (d, start, seq): Current gives the key of the event being
// dispatched, so the link completes what precedes it before its next
// admission, and DrawSeq gives a departure its sequence number without
// queuing anything. The link is a Holder, and the kernel settles what
// it still holds when a run call returns — RunUntil(t) every
// completion due at or before t, RunBefore(t) every one before t, Step
// and Run one at a time in key order once the queue is empty, moving
// the clock as the event would have — and, through Settle, for a
// reader in the middle of a run (a sampler). Steps counts events only.
//
// Random streams (rand.go) are math/rand's generator bit for bit, in a
// Source that builds its 607-word register lazily: seeding is O(1), the
// first 607 draws are computed from the seed, and the register is
// filled only at draw 608. A stream that draws a few hundred values —
// an on-off flow over a short run — costs about 90 bytes as a Rand slab
// element; the register alone is 4.9 KB.
package sim

import (
	"fmt"
	"math"

	"bufqos/internal/metrics"
	"bufqos/internal/packet"
)

// node is one arena slot: an event's ordering key, what it runs, and
// its links in the queue (queue.go). The generation counter
// distinguishes a live occupant from a recycled slot, so stale Event
// handles stay inert.
//
// sched is the simulated time at which the event was scheduled. For
// At/After it is the kernel's clock at the call; AtStampedPacket lets a
// caller supply it explicitly (the sharded topology engine stamps
// cross-shard arrivals with their upstream departure time, so a merged
// queue reproduces the order a single global kernel would have used).
//
// What an event runs is h, set while the slot is live: an At/After
// callback (funcHandler), a packet-carrying callback (packetFunc, called
// with p), an AtHandler receiver, or a delay line whose head the event
// is (lineHead). One field for all four keeps the node at 64 bytes, one
// cache line.
//
// next and prev link a queued node into its bucket's list, and next a
// free node into the free list; both hold an id plus one, so zero ends
// a list. pos is the node's place in the queue: its index in bucket 0's
// heap, -2-b in the list of bucket b ≥ 1, or unqueued.
type node struct {
	h          Handler
	p          *packet.Packet
	time       float64
	sched      float64
	seq        uint64
	next, prev int32
	gen        uint32
	pos        int32
}

// Handler is the receiver of an event scheduled with AtHandler. A
// pointer-shaped implementation — a pointer to an element of a slab of
// per-flow objects, or to a named type over that element, one per
// action — converts to a Handler without allocating, so an object that
// re-arms itself for the whole run costs nothing per event and nothing
// at construction.
type Handler interface {
	Fire()
}

// funcHandler carries an At/After callback and packetFunc a
// packet-carrying one. A func value is pointer-shaped, so neither
// conversion allocates.
type (
	funcHandler func()
	packetFunc  func(*packet.Packet)
)

func (f funcHandler) Fire() { f() }

// Fire is never called: run calls a packetFunc with its node's packet.
func (f packetFunc) Fire() { panic("sim: packet event fired without its packet") }

// run executes an event read out of a node before its slot was freed.
// The two callback forms are called directly, saving the dynamic call
// through Fire.
func run(h Handler, p *packet.Packet) {
	switch f := h.(type) {
	case funcHandler:
		f()
	case packetFunc:
		f(p)
	default:
		h.Fire()
	}
}

// Event is a value handle to a scheduled callback. The zero Event is
// inert; events are created through Simulator.At, After, AtHandler and
// the packet-carrying forms.
type Event struct {
	s    *Simulator
	id   int32
	gen  uint32
	time float64
}

// Time returns the simulated time at which the event fires (or fired).
func (e Event) Time() float64 { return e.time }

// Cancel removes a pending event from the queue. Cancelling an event
// that already fired (or was already cancelled) is a no-op. Cancelling
// a packet-carrying event does not release its packet: the canceller is
// its owner again.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	n := &e.s.nodes[e.id]
	if n.gen != e.gen || n.pos == unqueued {
		return
	}
	e.s.unqueue(e.id)
	e.s.freeNode(e.id)
	e.s.mCancelled.Inc()
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	if e.s == nil {
		return false
	}
	n := &e.s.nodes[e.id]
	return n.gen == e.gen && n.pos != unqueued
}

// Simulator is a discrete-event simulator. The zero value is not ready
// for use; call New.
type Simulator struct {
	now    float64
	seq    uint64
	nsteps uint64
	nodes  []node
	free   int32 // first free node, id plus one

	// The event queue (queue.go), its digit buckets at the end. Zero
	// is an empty queue.
	last    uint64  // key bucket 0's events are due at
	ties    []int32 // bucket 0: a 4-ary heap on (sched, seq)
	summary uint32  // bit w set while mask[w] is non-zero
	queued  int
	// lined counts the packets waiting on delay lines behind their
	// line's head, the one of each line in the queue.
	lined int

	pool packet.Pool

	// cur is the key of the event being dispatched, meaningful while
	// running (held.go: Current), and holders the holders of
	// completions computed ahead of the clock that Hold registered.
	cur     Key
	running bool
	holders []Holder

	// Metric handles, nil unless Instrument was called. Nil handles
	// no-op, so the disabled path costs one branch per operation.
	mScheduled      *metrics.Counter
	mDispatched     *metrics.Counter
	mCancelled      *metrics.Counter
	mHeapDepth      *metrics.Gauge
	mPacketsLive    *metrics.Gauge
	mPacketsCreated *metrics.Counter

	// The digit buckets, after every pointer field: the collector scans
	// an object only up to its last pointer.
	heads [nbuckets]int32   // bucket b's first node, id plus one
	mins  [nbuckets]uint64  // bucket b's least key, complemented: 0 empty
	mask  [maskWords]uint64 // bit b%64 of word b/64 set while b is non-empty
	stale [maskWords]uint64 // the same bit set when mins[b]'s event was cancelled
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

// Pending returns the number of events currently queued, the packets
// on delay lines included. Cancelled events leave the queue
// immediately, so the count is exact.
func (s *Simulator) Pending() int { return s.queued + s.lined }

// schedule is the one insertion path: it queues an arena slot due at t
// with scheduling stamp sched, holding h and, for a packetFunc, its
// packet.
// It panics if t is in the past or not a finite number — such bugs would
// otherwise manifest as silently reordered events — and if the stamp is
// not finite or lies after t.
func (s *Simulator) schedule(t, sched float64, h Handler, p *packet.Packet) Event {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: non-finite event time %v", t))
	}
	if !(t >= s.now) {
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
	n.h, n.p = h, p
	n.time, n.sched, n.seq = t, sched, s.seq
	s.push(id)
	s.seq++
	// Gauge.Set is not inlinable (CAS loop), so gate the pair on one
	// predictable branch instead of paying a call on the disabled path.
	if s.mScheduled != nil {
		s.mScheduled.Inc()
		s.mHeapDepth.Set(int64(s.queued))
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
	return s.schedule(t, s.now, funcHandler(fn), nil)
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AtHandler schedules h.Fire() to run at absolute time t, ordered
// exactly as At would order it. It is the one receiver-carrying form:
// the event stores h itself, so an object that passes a pointer to
// itself (or to a named type over itself, one per action) re-arms with
// no closure, bound method value or allocation. A relative delay d is
// AtHandler(Now()+d, h), the same time After(d, fn) computes.
func (s *Simulator) AtHandler(t float64, h Handler) Event {
	if h == nil {
		panic("sim: nil event handler")
	}
	return s.schedule(t, s.now, h, nil)
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

// AtStampedPacket schedules fn(p) to run at absolute time t carrying an
// explicit scheduling stamp. Same-time events order by (sched,
// insertion), so a packet injected from another simulator (a
// cross-shard arrival) can reproduce the position it would have had in
// a single global kernel: stamp it with the time its producing event
// executed. sched must not exceed t, and t obeys the same bounds as At.
//
// For every other event, sched is the kernel clock at the call. Since
// the clock never runs backwards, a later insertion always has an
// equal-or-later stamp, so for purely local workloads the (time, sched,
// seq) order is identical to the historical (time, seq) order — the
// stamp only discriminates when merging work from elsewhere.
func (s *Simulator) AtStampedPacket(t, sched float64, fn func(*packet.Packet), p *packet.Packet) Event {
	if fn == nil || p == nil {
		panic("sim: nil packet event callback or packet")
	}
	return s.schedule(t, sched, packetFunc(fn), p)
}

// Reserve pre-sizes the arena and bucket 0 for at least n
// simultaneously pending events, so a large warm-up (a 100k-flow
// topology scheduling its sources, all due at one instant) does no
// growth reallocations. The free list and the digit buckets live in the
// arena.
func (s *Simulator) Reserve(n int) {
	if cap(s.nodes) < n {
		nodes := make([]node, len(s.nodes), n)
		copy(nodes, s.nodes)
		s.nodes = nodes
	}
	if cap(s.ties) < n {
		ties := make([]int32, len(s.ties), n)
		copy(ties, s.ties)
		s.ties = ties
	}
}

// Step executes the next pending event and reports whether one was
// executed. With no event queued it settles instead the earliest
// completion a Holder holds, moving the clock to its time, and reports
// whether there was one.
func (s *Simulator) Step() bool {
	id, ok := s.pop(math.MaxUint64) // above every key
	if !ok {
		return s.settle(Key{math.Inf(1), math.Inf(1), math.MaxUint64}, 1) > 0
	}
	s.running = true
	s.dispatch(id)
	s.running = false
	return true
}

// RunUntil executes events in order until the clock would pass t or the
// queue drains. Events scheduled exactly at t do fire, and every held
// completion due at or before t is settled. On return the clock reads
// exactly t (even if the queue drained earlier), so measurement
// intervals are well defined.
func (s *Simulator) RunUntil(t float64) {
	if !(t >= s.now) { // NaN fails the comparison too
		panic(fmt.Sprintf("sim: RunUntil(%v) is in the past (now %v)", t, s.now))
	}
	s.runTo(t, false)
	s.settle(Key{t, math.Inf(1), 0}, math.MaxInt)
	s.now = t
}

// RunBefore executes events in order while they are strictly earlier
// than t, leaving the clock at the last executed event. Events at
// exactly t stay queued — the sharded engine runs each synchronization
// window [T, T+W) with RunBefore(T+W), so arrivals landing exactly on a
// window boundary execute in the next window, after the exchange that
// may deliver their equal-time cross-shard peers. Held completions due
// before t are settled, and move the clock as their events would have.
func (s *Simulator) RunBefore(t float64) {
	if !(t >= s.now) { // NaN fails the comparison too
		panic(fmt.Sprintf("sim: RunBefore(%v) is in the past (now %v)", t, s.now))
	}
	s.runTo(t, true)
	s.settle(Key{t, math.Inf(-1), 0}, math.MaxInt)
}

// runTo is the one dispatch loop: it runs events in (time, sched, seq)
// order up to t — strictly before t when exclusive.
func (s *Simulator) runTo(t float64, exclusive bool) {
	limit := key(t) + 1 // no key is above +Inf's, so this cannot wrap
	if exclusive {
		limit--
	}
	s.running = true
	for {
		id, ok := s.pop(limit)
		if !ok {
			break
		}
		s.dispatch(id)
	}
	s.running = false
}

// dispatch runs the popped event id: it frees the slot first, so the
// callback may reuse it. A delay line's head event keeps its slot: its
// Fire queues it again under the line's next packet.
func (s *Simulator) dispatch(id int32) {
	n := &s.nodes[id]
	h, p := n.h, n.p
	s.now = n.time
	s.cur = Key{n.time, n.sched, n.seq}
	s.nsteps++
	if s.mDispatched != nil {
		s.mDispatched.Inc()
	}
	if l, ok := h.(*lineHead); ok {
		l.Fire()
		return
	}
	s.freeNode(id)
	run(h, p)
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
	if s.free != 0 {
		id := s.free - 1
		s.free = s.nodes[id].next
		return id
	}
	s.nodes = append(s.nodes, node{pos: unqueued})
	return int32(len(s.nodes) - 1)
}

// freeNode retires an arena slot: the generation bump invalidates any
// outstanding handles and the callback and packet references are
// dropped so the arena never pins dead closures or recycled packets.
func (s *Simulator) freeNode(id int32) {
	n := &s.nodes[id]
	n.h, n.p = nil, nil
	n.gen++
	n.pos = unqueued
	n.next = s.free
	s.free = id + 1
}
