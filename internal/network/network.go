// Package network composes single-link routers into multi-hop paths.
// The paper analyses one multiplexing point; a backbone deployment of
// its scheme puts one threshold-managed FIFO at every output port. This
// package provides exactly that: store-and-forward routers whose
// departed packets are handed to per-flow next hops (with optional
// propagation delay), plus end-to-end delivery statistics, so the
// per-node guarantees can be studied in tandem.
package network

import (
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Router is one store-and-forward hop: an output link (scheduler +
// buffer manager) plus a per-flow routing table that delivers departed
// packets to their next hop.
type Router struct {
	Name string

	sim  *sim.Simulator
	link *sched.Link
	col  *stats.Collector
	// next and nhops are indexed by flow ID, grown on demand — flow IDs
	// are dense small integers, so slice indexing replaces the former
	// per-flow map lookups on the forwarding hot path (the CSR
	// flow-table convention). A nil entry means the flow terminates
	// here.
	next  []func(p *packet.Packet)
	prop  float64
	nhops []int64 // diagnostics: how many packets forwarded per flow
	// arriveFn is r.arrive, bound once: the handler of every
	// propagation-delay event the router schedules.
	arriveFn func(p *packet.Packet)
}

// NewRouter builds a hop. col may be nil; prop is the propagation delay
// (seconds) added when forwarding to the next hop.
func NewRouter(s *sim.Simulator, name string, rate units.Rate, scheduler sched.Scheduler,
	mgr buffer.Manager, col *stats.Collector, prop float64) *Router {
	if prop < 0 {
		panic(fmt.Sprintf("network: negative propagation delay %v", prop))
	}
	r := &Router{
		Name: name,
		sim:  s,
		col:  col,
		prop: prop,
	}
	r.link = sched.NewLink(s, rate, scheduler, mgr, col)
	r.link.OnDepart = r.forward
	r.arriveFn = r.arrive
	return r
}

// Link exposes the router's output link (for occupancy inspection or
// extra hooks — note OnDepart is owned by the router).
func (r *Router) Link() *sched.Link { return r.link }

// Collector returns the per-hop statistics collector (may be nil).
func (r *Router) Collector() *stats.Collector { return r.col }

// Receive implements source.Sink: packets enter the router's output
// queue (ingress processing is not modelled, as in the paper).
func (r *Router) Receive(p *packet.Packet) { r.link.Receive(p) }

// SetRoute directs departed packets of flow to next. A nil next means
// the flow terminates here. A packet already propagating when the route
// changes follows the new one.
func (r *Router) SetRoute(flow int, next func(p *packet.Packet)) {
	if flow >= len(r.next) {
		if next == nil {
			return
		}
		grown := make([]func(p *packet.Packet), flow+1)
		copy(grown, r.next)
		r.next = grown
		hops := make([]int64, flow+1)
		copy(hops, r.nhops)
		r.nhops = hops
	}
	r.next[flow] = next
}

// Forwarded returns how many of flow's packets this router has handed
// to a next hop so far (packets terminating here, or departing with no
// route set, are not counted).
func (r *Router) Forwarded(flow int) int64 {
	if flow >= len(r.nhops) {
		return 0
	}
	return r.nhops[flow]
}

// forward is the link's OnDepart hook, so the router owns every
// departed packet: it hands it to the flow's next hop or, when the flow
// terminates here, releases it.
func (r *Router) forward(p *packet.Packet) {
	if p.Flow >= len(r.next) || r.next[p.Flow] == nil {
		r.sim.Release(p)
		return
	}
	r.nhops[p.Flow]++
	if r.prop == 0 {
		// Forward within the same event: the packet arrives at the next
		// hop the instant its last bit leaves this one.
		r.arrive(p)
		return
	}
	r.sim.AfterPacket(r.prop, r.arriveFn, p)
}

// arrive delivers p to its flow's next hop.
func (r *Router) arrive(p *packet.Packet) {
	next := r.next[p.Flow]
	if next == nil { // un-routed while the packet was propagating
		r.sim.Release(p)
		return
	}
	p.Arrived = r.sim.Now()
	next(p)
}

// Delivery records end-to-end completions at the far end of a path.
type Delivery struct {
	sim *sim.Simulator
	// per-flow counters
	packets []int64
	bytes   []units.Bytes
	dsum    []float64 // running delay sum (exact: same additions in both modes)
	dmax    []float64
	delays  []*stats.DelayTracker // nil in light mode
	// tcp is a flat array indexed by flow ID (one contiguous block, no
	// per-flow pointers), nil until a flow registers an acker; an entry
	// with a nil ack callback is open-loop.
	tcp []tcpEndpoint
}

// tcpEndpoint is the receive side of one closed-loop flow: it reorders
// by sequence number, counts goodput (first copies only) separately
// from raw deliveries, and answers every data segment with a cumulative
// acknowledgement handed to the registered ack callback.
type tcpEndpoint struct {
	ackSize units.Bytes
	ack     func(p *packet.Packet)
	rcvNxt  uint64        // next expected sequence number
	ooo     seqBitmap     // out-of-order segments held for reassembly
	ackSeq  uint64        // monotone Seq for emitted ACK packets
	goodput stats.Counter // unique in-order-reassembled data
	dups    int64         // duplicate copies discarded
}

// seqBitmap marks which out-of-order sequence numbers a receiver holds,
// in a power-of-two ring of bits indexed by the sequence number. Every
// set bit lies in [rcvNxt, rcvNxt + capacity); the ring grows by
// doubling when a segment lands beyond it. It replaces a
// map[uint64]bool whose per-segment hashing dominated the reassembly
// path and whose per-entry overhead (~50 bytes) dwarfed the one bit of
// information — at 10⁶ concurrent receivers the difference is what
// keeps memory O(flows).
type seqBitmap struct {
	words []uint64
}

func (b *seqBitmap) nbits() uint64 { return uint64(len(b.words)) * 64 }

// has reports whether seq's bit is set. base is the window anchor
// (rcvNxt); sequences at or beyond base+capacity cannot be stored and
// report false without touching the ring (guarding against slot
// collisions with live bits).
func (b *seqBitmap) has(base, seq uint64) bool {
	if n := b.nbits(); n == 0 || seq >= base+n {
		return false
	}
	i := seq & (b.nbits() - 1)
	return b.words[i/64]&(1<<(i%64)) != 0
}

// set marks seq, growing the ring until [base, seq] fits.
func (b *seqBitmap) set(base, seq uint64) {
	if need := seq - base + 1; need > b.nbits() {
		b.grow(base, need)
	}
	i := seq & (b.nbits() - 1)
	b.words[i/64] |= 1 << (i % 64)
}

// clear unmarks seq (a no-op when it was never set).
func (b *seqBitmap) clear(seq uint64) {
	if b.nbits() == 0 {
		return
	}
	i := seq & (b.nbits() - 1)
	b.words[i/64] &^= 1 << (i % 64)
}

// grow doubles the ring until it covers need bits, re-homing the live
// window's set bits under the new mask.
func (b *seqBitmap) grow(base, need uint64) {
	size := uint64(64)
	for size < need {
		size *= 2
	}
	words := make([]uint64, size/64)
	for s := base; s < base+b.nbits(); s++ {
		if b.has(base, s) {
			i := s & (size - 1)
			words[i/64] |= 1 << (i % 64)
		}
	}
	b.words = words
}

// receive processes one data segment and emits the cumulative ACK.
func (r *tcpEndpoint) receive(d *Delivery, p *packet.Packet) {
	switch {
	case p.Seq < r.rcvNxt || r.ooo.has(r.rcvNxt, p.Seq):
		r.dups++
	case p.Seq == r.rcvNxt:
		r.goodput.Add(p.Size)
		r.rcvNxt++
		for r.ooo.has(r.rcvNxt, r.rcvNxt) {
			r.ooo.clear(r.rcvNxt)
			r.rcvNxt++
		}
	default:
		r.goodput.Add(p.Size)
		r.ooo.set(r.rcvNxt, p.Seq)
	}
	now := d.sim.Now()
	ap := d.sim.NewPacket()
	ap.Flow = p.Flow
	ap.Size = r.ackSize
	ap.Created = now
	ap.Arrived = now
	ap.Seq = r.ackSeq
	ap.Ack = true
	ap.AckSeq = r.rcvNxt
	r.ackSeq++
	r.ack(ap)
}

// NewDelivery builds an end-to-end sink for nflows flows with full
// per-flow delay tracking (histogram + exact-sample quantiles).
func NewDelivery(s *sim.Simulator, nflows int) *Delivery {
	d := NewDeliveryLight(s, nflows)
	d.delays = make([]*stats.DelayTracker, nflows)
	for i := range d.delays {
		d.delays[i] = stats.NewDelayTracker(0)
	}
	return d
}

// NewDeliveryLight builds a sink that records only each flow's count,
// byte volume, delay sum, and delay maximum — no histograms or sample
// reservoirs. With 10⁵ flows the full trackers cost tens of kilobytes
// each; the light mode keeps MeanDelay and MaxDelay bit-identical to the
// full mode (the same float additions in the same order) at 32 bytes per
// flow. Delay returns nil for every flow in this mode.
func NewDeliveryLight(s *sim.Simulator, nflows int) *Delivery {
	return &Delivery{
		sim:     s,
		packets: make([]int64, nflows),
		bytes:   make([]units.Bytes, nflows),
		dsum:    make([]float64, nflows),
		dmax:    make([]float64, nflows),
	}
}

// NumFlows returns how many flows the delivery sink tracks.
func (d *Delivery) NumFlows() int { return len(d.packets) }

// Receive implements the forwarding signature: record the completion,
// acknowledge it when the flow is closed-loop, and release the packet —
// delivery is where a data packet's life ends.
// A packet whose flow ID is outside the sink's range panics with a
// message naming the flow — a topology that forwards an unknown flow is
// a wiring bug, and the bare index-out-of-range panic it used to cause
// gave no hint which flow was misrouted.
func (d *Delivery) Receive(p *packet.Packet) {
	if p.Flow < 0 || p.Flow >= len(d.packets) {
		panic(fmt.Sprintf("network: delivery received packet of unknown flow %d (tracking flows 0..%d); check the topology's routes", p.Flow, len(d.packets)-1))
	}
	d.packets[p.Flow]++
	d.bytes[p.Flow] += p.Size
	delay := d.sim.Now() - p.Created
	d.dsum[p.Flow] += delay
	if delay > d.dmax[p.Flow] {
		d.dmax[p.Flow] = delay
	}
	if d.delays != nil {
		d.delays[p.Flow].Add(delay)
	}
	if d.tcp != nil {
		if r := &d.tcp[p.Flow]; r.ack != nil {
			r.receive(d, p)
		}
	}
	d.sim.Release(p)
}

// TCPAckSize is the size of a pure acknowledgement — a TCP/IP header
// with no payload — that the closed-loop engines pass to SetAcker.
const TCPAckSize units.Bytes = 40

// SetAcker registers flow as closed-loop: every delivered data segment
// is answered with a cumulative acknowledgement packet of the given
// size, handed to ack at delivery time. The caller routes the ACK back
// towards the source (typically across the flow's reverse path delay)
// and owns it: a source.Feedback releases the ACK it is handed.
func (d *Delivery) SetAcker(flow int, ackSize units.Bytes, ack func(p *packet.Packet)) {
	if d.tcp == nil {
		d.tcp = make([]tcpEndpoint, len(d.packets))
	}
	d.tcp[flow] = tcpEndpoint{ackSize: ackSize, ack: ack}
}

// Goodput returns flow's unique delivered data — retransmitted copies
// counted once — which is the throughput measure the GFR comparison
// uses. It is zero (and meaningless) for flows without an acker.
func (d *Delivery) Goodput(flow int) stats.Counter {
	if d.tcp == nil || d.tcp[flow].ack == nil {
		return stats.Counter{}
	}
	return d.tcp[flow].goodput
}

// Duplicates returns how many redundant copies flow's receiver
// discarded.
func (d *Delivery) Duplicates(flow int) int64 {
	if d.tcp == nil || d.tcp[flow].ack == nil {
		return 0
	}
	return d.tcp[flow].dups
}

// Packets returns flow's delivered packet count.
func (d *Delivery) Packets(flow int) int64 { return d.packets[flow] }

// Bytes returns flow's delivered volume.
func (d *Delivery) Bytes(flow int) units.Bytes { return d.bytes[flow] }

// Throughput returns flow's delivered rate over [0, now].
func (d *Delivery) Throughput(flow int) units.Rate {
	if d.sim.Now() == 0 {
		return 0
	}
	return units.Rate(d.bytes[flow].Bits() / d.sim.Now())
}

// Delay returns flow's end-to-end delay tracker (source departure to
// final delivery), or nil for a light-mode sink.
func (d *Delivery) Delay(flow int) *stats.DelayTracker {
	if d.delays == nil {
		return nil
	}
	return d.delays[flow]
}

// MeanDelay returns flow's average end-to-end delay in seconds (0 when
// nothing was delivered). Available in both full and light modes, with
// bit-identical values.
func (d *Delivery) MeanDelay(flow int) float64 {
	if d.packets[flow] == 0 {
		return 0
	}
	return d.dsum[flow] / float64(d.packets[flow])
}

// MaxDelay returns flow's worst end-to-end delay in seconds.
func (d *Delivery) MaxDelay(flow int) float64 { return d.dmax[flow] }

// Path wires a chain of routers for a set of flows: every flow entering
// at the head traverses all hops and terminates in the Delivery sink.
type Path struct {
	Routers  []*Router
	Delivery *Delivery
}

// NewPath connects routers head-to-tail for flows 0..nflows-1 and
// attaches a Delivery at the end.
func NewPath(s *sim.Simulator, routers []*Router, nflows int) *Path {
	if len(routers) == 0 {
		panic("network: empty path")
	}
	d := NewDelivery(s, nflows)
	for i, r := range routers {
		for flow := 0; flow < nflows; flow++ {
			if i+1 < len(routers) {
				next := routers[i+1]
				r.SetRoute(flow, next.Receive)
			} else {
				r.SetRoute(flow, d.Receive)
			}
		}
	}
	return &Path{Routers: routers, Delivery: d}
}

// Head returns the path's entry sink.
func (p *Path) Head() *Router { return p.Routers[0] }
