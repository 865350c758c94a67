// Package network holds the two ends of every flow a runner simulates.
// At the source end, Flows wires each flow's generator and edge
// regulator into its first hop and carries closed-loop feedback back
// to the sender. At the far end, Delivery records end-to-end
// completions and answers closed-loop flows with acknowledgements. The
// single-link plane (experiment.NewPlane), the sizing cell and the
// multi-hop topology engine all wire their flows through this package;
// what lies between the two ends — one link, or a routed network of
// them — is the runner's.
//
// A delivery costs no event. Everything it does is known when the
// packet leaves its last link at d: it reaches the sink at t = d +
// prop, the wire's fixed delay. So the runners book it then, with
// Delivery.ReceiveAt(p, t), instead of scheduling an event at t, and
// stamp the acknowledgement it produces with t. A reader of the sink in
// the middle of a run would see deliveries up to one prop early; every
// runner reads it after the run, when all bookings due by the horizon
// are in and none after it was made.
package network

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Delivery records end-to-end completions at the far end of a flow's
// route.
//
// Runners book a packet when it departs its last link (ReceiveAt at its
// arrival time t), so the acknowledgement a closed-loop flow returns is
// scheduled at the departure d, due at t + δ (δ the reverse path's
// delay) and stamped t — the key it would get from a delivery event at
// t — but with a sequence number drawn at d rather than t. That is the
// tie rule: an event due at exactly t + δ with stamp exactly t whose
// sequence number was drawn in [d, t) — one scheduled at t ahead of
// that delivery event — runs after the ACK, not before it. Nothing
// else changes order.
type Delivery struct {
	sim *sim.Simulator
	// per-flow counters
	packets []int64
	bytes   []units.Bytes
	dsum    []float64 // running delay sum
	dmax    []float64
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

// receive processes one data segment arriving at t and emits the
// cumulative ACK, created and arrived at t.
func (r *tcpEndpoint) receive(d *Delivery, p *packet.Packet, t float64) {
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
	ap := d.sim.NewPacket()
	ap.Flow = p.Flow
	ap.Size = r.ackSize
	ap.Created = t
	ap.Arrived = t
	ap.Seq = r.ackSeq
	ap.Ack = true
	ap.AckSeq = r.rcvNxt
	r.ackSeq++
	r.ack(ap)
}

// NewDeliveryLight builds an end-to-end sink for nflows flows that
// records only each flow's count, byte volume, delay sum, and delay
// maximum — no histograms or sample reservoirs, which at 10⁵ flows
// would cost tens of kilobytes each — so a flow costs 32 bytes.
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

// Receive books p as arriving now: ReceiveAt(p, Now()). It is the
// handler of a packet event that ends at the sink.
func (d *Delivery) Receive(p *packet.Packet) { d.ReceiveAt(p, d.sim.Now()) }

// ReceiveAt books p as arriving at the sink at t, which may lie ahead
// of the clock: record the completion with delay t − p.Created,
// acknowledge it when the flow is closed-loop — the ACK is created and
// arrived at t, and handed to the acker now — and release the packet,
// since delivery is where a data packet's life ends. Nothing need stamp
// p.Arrived first. A flow's packets must be booked in the order of
// their arrival times, as a wire of fixed delay delivers them.
// A packet whose flow ID is outside the sink's range panics with a
// message naming the flow — a topology that forwards an unknown flow is
// a wiring bug, and the bare index-out-of-range panic it used to cause
// gave no hint which flow was misrouted.
func (d *Delivery) ReceiveAt(p *packet.Packet, t float64) {
	if p.Flow < 0 || p.Flow >= len(d.packets) {
		panic(fmt.Sprintf("network: delivery received packet of unknown flow %d (tracking flows 0..%d); check the topology's routes", p.Flow, len(d.packets)-1))
	}
	d.packets[p.Flow]++
	d.bytes[p.Flow] += p.Size
	delay := t - p.Created
	d.dsum[p.Flow] += delay
	if delay > d.dmax[p.Flow] {
		d.dmax[p.Flow] = delay
	}
	if d.tcp != nil {
		if r := &d.tcp[p.Flow]; r.ack != nil {
			r.receive(d, p, t)
		}
	}
	d.sim.Release(p)
}

// TCPAckSize is the size of a pure acknowledgement — a TCP/IP header
// with no payload — that the closed-loop engines pass to SetAcker.
const TCPAckSize units.Bytes = 40

// SetAcker registers flow as closed-loop: every delivered data segment
// is answered with a cumulative acknowledgement packet of the given
// size, handed to ack when the segment is booked and stamped (Created,
// Arrived) with its arrival time. The caller routes the ACK back
// towards the source (typically across the flow's reverse path delay,
// from that stamp) and owns it: the sender's OnAck releases the ACK it
// is handed.
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

// MeanDelay returns flow's average end-to-end delay (source departure
// to final delivery) in seconds, 0 when nothing was delivered.
func (d *Delivery) MeanDelay(flow int) float64 {
	if d.packets[flow] == 0 {
		return 0
	}
	return d.dsum[flow] / float64(d.packets[flow])
}

// MaxDelay returns flow's worst end-to-end delay in seconds.
func (d *Delivery) MaxDelay(flow int) float64 { return d.dmax[flow] }
