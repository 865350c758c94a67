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
type Link struct {
	sim   *sim.Simulator
	rate  units.Rate
	sched Scheduler
	mgr   buffer.Manager
	col   *stats.Collector
	// tot, when col is nil, is one row every flow's packets count into
	// (CountTotals).
	tot *stats.FlowStats

	busy bool
	down bool
	// inFlight is the packet on the wire (nil when idle) and departFn
	// the link's one departure callback, l.depart bound once: a
	// transmission schedules a stored func, not a closure over p.
	inFlight *packet.Packet
	departFn func()
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
func (l *Link) Busy() bool { return l.busy }

// Receive implements source.Sink: a packet arrives at the multiplexer.
func (l *Link) Receive(p *packet.Packet) {
	if l.col != nil {
		l.col.Offered(p, l.sim.Now())
	} else if l.tot != nil {
		l.tot.Offered.Add(p)
	}
	if !l.mgr.Admit(p.Flow, p.Size) {
		l.dropped(p)
		return
	}
	l.sched.Enqueue(p)
	if !l.busy {
		l.startNext()
	}
}

// startNext begins transmitting the scheduler's next packet, if any.
func (l *Link) startNext() {
	if l.down {
		l.busy = false
		return
	}
	p := l.sched.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.inFlight = p
	l.sim.After(units.TransmissionTime(p.Size, l.rate), l.departFn)
}

// depart completes the in-flight transmission: free the buffer space,
// account the departure, pass the packet to OnDepart (or release it),
// and start on the next one.
func (l *Link) depart() {
	p := l.inFlight
	l.inFlight = nil
	l.mgr.Release(p.Flow, p.Size)
	l.mServed.Inc()
	l.mServedBytes.Add(int64(p.Size))
	if l.col != nil {
		l.col.Departed(p, l.sim.Now())
	} else if l.tot != nil {
		l.tot.Departed.Add(p)
	}
	if l.OnDepart != nil {
		l.OnDepart(p)
	} else {
		l.sim.Release(p)
	}
	l.startNext()
}
