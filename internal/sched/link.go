package sched

import (
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Link is the output-link server: it accepts packets from sources (it
// is a source.Sink), consults the buffer manager for admission, queues
// admitted packets in the scheduler, and transmits them back-to-back at
// the link rate. It is non-preemptive and work-conserving.
//
// A packet's life ends here unless a hook says otherwise: the link
// releases a rejected packet, a pushed-out victim and a departed packet
// to the simulator's pool when the matching OnDrop/OnDepart hook is
// nil, and hands ownership to the hook when it is set.
//
// Computed departures. A link serving a *FIFO with no OnDepart hook
// spends no event on a departure: on a constant-rate, non-preemptive
// FIFO a packet's departure is known when it is admitted, d_k =
// max(a_k, d_{k-1}) + L_k/R (Lindley's recursion). The link appends the
// admitted packet to a ring under the key its departure event would
// have had, (d, start, seq), and completes every entry whose key
// precedes the current event (sim.Simulator.Current) before its next
// admission: the manager's Release, the counters, the collector's
// Departed at d and the packet's release. It is a sim.Holder, so the
// kernel settles what is left when a run call returns, and a reader in
// mid-run calls Settle first. Hooked links, and every other scheduler,
// keep the departure event. Which path a link takes follows from its
// configuration alone; on the computed path its queued packets are in
// the ring, not in Scheduler().
//
// Ties. When the link is idle, the entry's seq is drawn where the
// departure event's would be, so the dispatch order is exact. When it
// is busy, the event path draws packet k's seq as packet k-1 departs
// and the ring draws it at k's arrival. The two orders differ only for
// an event due exactly at d_k that was scheduled at exactly d_{k-1} by
// an event dispatched before that departure: the event path runs it
// before departure k, the ring after.
//
// Re-base. SetRate, SetDown(true), and an OnDepart hook found set while
// entries are pending turn the ring back into the event path: entries
// whose key precedes the current event complete, the packet in flight
// keeps its departure time as an event, and the rest return to the
// FIFO. A hook set in mid-run is found at the link's next arrival,
// SetRate, SetDown or Busy; departures before that complete unhooked
// (the kernel's settling never calls a hook), so a hook meant to see
// every departure is set before the first arrival.
type Link struct {
	sim   *sim.Simulator
	rate  units.Rate
	sched Scheduler
	mgr   buffer.Manager
	col   *stats.Collector
	// tot, when col is nil, is one row every flow's packets count into
	// (CountTotals).
	tot *stats.FlowStats

	// busy is set while a departure event is pending: the packet on the
	// wire rides in it, and departFn, l.depart bound once, is what it
	// runs, so a transmission schedules a stored func, not a closure.
	busy     bool
	down     bool
	departFn func(p *packet.Packet)
	// comp is the computed-departure ring, allocated at the link's
	// first computed departure.
	comp *computed
	// OnDepart, if set, is called after each completed transmission and
	// owns the packet from then on. The fluid tests and the greedy
	// feedback source use it.
	OnDepart func(p *packet.Packet)
	// OnDrop, if set, is called for each rejected or pushed-out packet
	// and owns it from then on.
	OnDrop func(p *packet.Packet)

	mServed      *metrics.Counter // nil unless instrumented
	mServedBytes *metrics.Counter
	mPushouts    *metrics.Counter
}

// computed is a link's ring of computed departures: n entries from
// ring[head], in FIFO order, the first of them on the wire. headD and
// tailD are the first and last entries' departure times.
type computed struct {
	ring         []entry
	head, n      int
	headD, tailD float64
}

// entry is one packet with a computed departure: start is when its
// transmission begins and seq its departure's sequence number. Its
// departure time is start + units.TransmissionTime(p.Size, rate), so
// the entry needs no time of its own.
type entry struct {
	p     *packet.Packet
	start float64
	seq   uint64
}

// PushoutNotifier is implemented by combined queue/manager types that
// evict already-queued packets (internal/buffer's PushoutFIFO,
// ClassGreedy and ClassSeg). NewLink registers a callback with such schedulers so
// every victim is counted as a drop — in the statistics collector, the
// pushout counter, and the OnDrop hook — keeping packet conservation
// (offered = departed + dropped + queued) intact.
type PushoutNotifier interface {
	SetOnPushout(fn func(p *packet.Packet))
}

// Instrument registers per-scheme service counters with r: packets and
// bytes transmitted, named "sched.served_packets.<scheme>" and
// "sched.served_bytes.<scheme>". It also instruments the scheduler
// when it supports it (WFQ virtual-time advances).
func (l *Link) Instrument(r *metrics.Registry, scheme string) {
	if r == nil {
		return
	}
	l.mServed = r.Counter("sched.served_packets." + scheme)
	l.mServedBytes = r.Counter("sched.served_bytes." + scheme)
	if _, ok := l.sched.(PushoutNotifier); ok {
		l.mPushouts = r.Counter("sched.pushouts." + scheme)
	}
	if in, ok := l.sched.(interface{ Instrument(*metrics.Registry) }); ok {
		in.Instrument(r)
	}
}

// NewLink builds a server draining sched at the given rate, with mgr
// deciding admissions. col may be nil when no statistics are wanted.
func NewLink(s *sim.Simulator, rate units.Rate, sched Scheduler, mgr buffer.Manager, col *stats.Collector) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("link: non-positive rate %v", rate))
	}
	if sched == nil || mgr == nil {
		panic("link: nil scheduler or buffer manager")
	}
	l := &Link{sim: s, rate: rate, sched: sched, mgr: mgr, col: col}
	l.departFn = l.depart
	if pn, ok := sched.(PushoutNotifier); ok {
		// Fields are read at pushout time, so counters registered by a
		// later Instrument call and OnDrop hooks set after construction
		// are honoured.
		pn.SetOnPushout(func(p *packet.Packet) {
			l.mPushouts.Inc()
			l.dropped(p)
		})
	}
	return l
}

// dropped accounts one lost packet (rejected on arrival or pushed out
// of the queue) and passes it to OnDrop, or releases it.
func (l *Link) dropped(p *packet.Packet) {
	if l.col != nil {
		l.col.Dropped(p, l.sim.Now())
	} else if l.tot != nil {
		l.tot.Dropped.Add(p)
	}
	if l.OnDrop != nil {
		l.OnDrop(p)
		return
	}
	l.sim.Release(p)
}

// CountTotals makes a link built without a collector count every
// flow's offered, dropped and departed packets into the one row tot,
// from time zero: the link's totals at the cost of one row, where a
// collector keeps a row per flow.
func (l *Link) CountTotals(tot *stats.FlowStats) { l.tot = tot }

// Rate returns the link rate.
func (l *Link) Rate() units.Rate { return l.rate }

// SetRate changes the link rate for transmissions started from now on.
// The in-flight packet, if any, completes at the rate in force when it
// began (the serialization of a packet already on the wire cannot be
// sped up or slowed down). Scenario engines use this for mid-run
// capacity changes; a non-positive rate panics as in NewLink.
func (l *Link) SetRate(rate units.Rate) {
	if rate <= 0 {
		panic(fmt.Sprintf("link: non-positive rate %v", rate))
	}
	l.rebase()
	l.rate = rate
}

// SetDown fails (true) or recovers (false) the link. A failed link
// starts no new transmissions: arriving packets still pass buffer
// admission and queue up (a dead output port keeps its buffer), so the
// buffer fills and drops accrue while the link is down. The in-flight
// packet, if any, completes. Recovery resumes service immediately.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	if down {
		l.rebase()
	}
	l.down = down
	if !down && !l.busy {
		l.startNext()
	}
}

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// Manager returns the buffer manager, for occupancy inspection.
func (l *Link) Manager() buffer.Manager { return l.mgr }

// Scheduler returns the scheduler.
func (l *Link) Scheduler() Scheduler { return l.sched }

// Busy reports whether a packet is currently being transmitted.
func (l *Link) Busy() bool {
	if l.busy {
		return true
	}
	l.catchUp()
	return l.comp != nil && l.comp.n > 0
}

// Receive implements source.Sink: a packet arrives at the multiplexer.
func (l *Link) Receive(p *packet.Packet) {
	if l.comp != nil && l.comp.n > 0 {
		l.catchUp()
	}
	if l.col != nil {
		l.col.Offered(p, l.sim.Now())
	} else if l.tot != nil {
		l.tot.Offered.Add(p)
	}
	if !l.mgr.Admit(p.Flow, p.Size) {
		l.dropped(p)
		return
	}
	if l.busy {
		l.sched.Enqueue(p)
		return
	}
	if !l.down && l.computes() {
		l.compute(p)
		return
	}
	l.sched.Enqueue(p)
	l.startNext()
}

// computes reports whether the link's departures are computed: it
// serves a FIFO and no hook watches them.
func (l *Link) computes() bool {
	_, fifo := l.sched.(*FIFO)
	return fifo && l.OnDepart == nil
}

// startNext begins transmitting the scheduler's next packet, if any:
// on the computed path every queued packet, each as its departure is
// computed.
func (l *Link) startNext() {
	if l.down {
		l.busy = false
		return
	}
	if l.computes() {
		l.busy = false
		for p := l.sched.Dequeue(); p != nil; p = l.sched.Dequeue() {
			l.compute(p)
		}
		return
	}
	p := l.sched.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.sim.AfterPacket(units.TransmissionTime(p.Size, l.rate), l.departFn, p)
}

// depart completes the in-flight transmission: free the buffer space,
// account the departure, pass the packet to OnDepart (or release it),
// and start on the next one.
func (l *Link) depart(p *packet.Packet) {
	l.departed(p, l.sim.Now())
	if l.OnDepart != nil {
		l.OnDepart(p)
	} else {
		l.sim.Release(p)
	}
	l.startNext()
}

// departed accounts p's departure at time d: its buffer space, the
// service counters and the collector.
func (l *Link) departed(p *packet.Packet, d float64) {
	l.mgr.Release(p.Flow, p.Size)
	l.mServed.Inc()
	l.mServedBytes.Add(int64(p.Size))
	if l.col != nil {
		l.col.Departed(p, d)
	} else if l.tot != nil {
		l.tot.Departed.Add(p)
	}
}

// compute admits p to the ring: its transmission starts when the last
// entry's ends, or now on an idle link, and its departure takes the
// next sequence number. The first call allocates the ring and
// registers the link with the kernel.
func (l *Link) compute(p *packet.Packet) {
	c := l.comp
	if c == nil {
		c = &computed{ring: make([]entry, 16)}
		l.comp = c
		l.sim.Hold((*linkHolder)(l))
	}
	start := l.sim.Now()
	if c.n > 0 {
		start = c.tailD
	}
	if c.n == len(c.ring) {
		ring := make([]entry, 2*len(c.ring))
		k := copy(ring, c.ring[c.head:])
		copy(ring[k:], c.ring[:c.head])
		c.ring, c.head = ring, 0
	}
	i := c.head + c.n
	if i >= len(c.ring) {
		i -= len(c.ring)
	}
	c.ring[i] = entry{p: p, start: start, seq: l.sim.DrawSeq()}
	c.tailD = start + units.TransmissionTime(p.Size, l.rate)
	if c.n == 0 {
		c.headD = c.tailD
	}
	c.n++
}

// headKey is the key of the ring's first entry's departure.
func (c *computed) headKey() sim.Key {
	e := &c.ring[c.head]
	return sim.Key{Time: c.headD, Sched: e.start, Seq: e.seq}
}

// completeHead completes the ring's first entry.
func (l *Link) completeHead() {
	c := l.comp
	e := &c.ring[c.head]
	p, d := e.p, c.headD
	*e = entry{}
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
	if c.n > 0 {
		next := &c.ring[c.head]
		c.headD = next.start + units.TransmissionTime(next.p.Size, l.rate)
	}
	l.departed(p, d)
	l.sim.Release(p)
}

// catchUp completes every computed departure that precedes the current
// event, or, when an OnDepart hook has been set since, re-bases.
func (l *Link) catchUp() {
	c := l.comp
	if c == nil {
		return
	}
	if l.OnDepart != nil {
		l.rebase()
		return
	}
	k := l.sim.Current()
	for c.n > 0 && c.headKey().Before(k) {
		l.completeHead()
	}
}

// rebase turns the ring back into the event path: entries preceding the
// current event complete, the packet in flight departs by an event at
// its computed time, and the rest return to the FIFO.
func (l *Link) rebase() {
	c := l.comp
	if c == nil {
		return
	}
	k := l.sim.Current()
	for c.n > 0 && c.headKey().Before(k) {
		l.completeHead()
	}
	if c.n == 0 {
		return
	}
	e := &c.ring[c.head]
	l.busy = true
	l.sim.AtStampedPacket(c.headD, e.start, l.departFn, e.p)
	for i := 1; i < c.n; i++ {
		l.sched.Enqueue(c.ring[(c.head+i)%len(c.ring)].p)
	}
	clear(c.ring)
	c.head, c.n = 0, 0
}

// linkHolder is the link as the kernel's sim.Holder of its computed
// departures.
type linkHolder Link

func (h *linkHolder) Next() (sim.Key, bool) {
	if h.comp.n == 0 {
		return sim.Key{}, false
	}
	return h.comp.headKey(), true
}

func (h *linkHolder) Complete() { (*Link)(h).completeHead() }
