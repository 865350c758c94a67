// Package packet defines the packet and flow-descriptor types shared by
// traffic sources, buffer managers, and schedulers.
package packet

import (
	"fmt"
	"math"

	"bufqos/internal/units"
)

// Packet is a single packet travelling through the simulated router.
// Packets are created by sources and owned by at most one queue at a
// time; they are never copied once enqueued.
//
// Lifetime and ownership. Sources, delivery endpoints (ACKs) and the
// sharded engine's barrier draw packets from their simulator's pool
// (sim.Simulator.NewPacket); no other non-test code builds one. The
// last component handed a packet owns it, and releases it
// (sim.Simulator.Release) where its life ends:
//
//   - sched.Link releases a rejected packet, a pushed-out victim and a
//     departed packet — each only when no OnDrop/OnDepart hook is
//     installed. An installed hook takes ownership: it may forward the
//     packet, hand it back to a Receive, or keep it.
//   - network.Delivery.ReceiveAt (and Receive) releases the data packet
//     after accounting and ACK generation. The runners call it when the
//     packet departs its last link, with its arrival time, and release
//     it themselves when that time lies past the run's horizon; an
//     open-loop sizing cell, which reads nothing at the far end,
//     releases it in its departure hook.
//   - source.TCP.OnAck and OnDrop release the notification they were
//     handed before returning; network.Flows.Feedback releases one
//     naming a flow that has no sender.
//   - the topology engine releases a dropped packet of an open-loop
//     flow, and the copy it leaves behind when a packet crosses to
//     another shard by value.
//
// Never releasing is always safe: the packet falls back to the garbage
// collector, which is what recorders, test sinks and hooks that keep
// packets rely on, and a packet no pool created may be released once.
// Releasing early is the bug — the next NewPacket may hand the same
// memory to someone else — so nothing may touch a packet after passing
// it downstream, and releasing one twice panics.
type Packet struct {
	// Flow identifies the flow the packet belongs to. Flow IDs are
	// dense small integers assigned by the experiment setup.
	Flow int
	// Size is the packet length in bytes, including headers.
	Size units.Bytes
	// Created is the simulated time the source generated the packet.
	Created float64
	// Arrived is the simulated time the packet reached the multiplexer
	// (after any shaping delay).
	Arrived float64
	// Seq is a per-flow sequence number assigned by the source.
	Seq uint64
	// Hop is the packet's current position on its flow's route (0 at
	// the first link). Engines that renumber Flow to a link-local index
	// use it to find the next hop without a global lookup.
	Hop int32
	// Class is the packet's service class for class-aware buffer
	// policies (higher = more valuable). Sources stamp it from the
	// flow's declared class; 0 for unclassified traffic.
	Class int32
	// Conformant marks whether a token-bucket meter at the network edge
	// found the packet within the flow's (σ, ρ) profile. The remark
	// after Proposition 1 colors conformant bits green and excess bits
	// red; this field is that color.
	Conformant bool
	// Ack marks a reverse-direction acknowledgement generated by a
	// delivery endpoint for a closed-loop (TCP) flow. ACKs travel the
	// flow's reverse route back to the source and are never enqueued in
	// forward-direction buffers.
	Ack bool
	// pool is the owning Pool's mark (the zero value: no pool made this
	// packet). It sits with the flags so the struct stays one 64-byte
	// cache line.
	pool poolState
	// AckSeq is the cumulative acknowledgement carried by an Ack packet:
	// the receiver has every data segment with Seq < AckSeq.
	AckSeq uint64
}

// String implements fmt.Stringer for debugging output.
func (p *Packet) String() string {
	c := "excess"
	if p.Conformant {
		c = "conf"
	}
	return fmt.Sprintf("pkt{flow=%d seq=%d %v %s t=%.6f}", p.Flow, p.Seq, p.Size, c, p.Created)
}

// FlowSpec is the traffic contract of a flow: the leaky-bucket profile
// (σ = BucketSize, ρ = TokenRate) plus a peak rate, exactly the triple
// the paper's simulation setup specifies per flow.
type FlowSpec struct {
	// PeakRate bounds the instantaneous sending rate of the source.
	PeakRate units.Rate
	// TokenRate ρ is the reserved (guaranteed) rate of the flow.
	TokenRate units.Rate
	// BucketSize σ is the token-bucket depth in bytes.
	BucketSize units.Bytes
}

// Validate reports a descriptive error for non-physical specs. A NaN or
// infinite rate is one: a NaN summed into a link's Σρ makes every
// admission comparison on the link false, switching its bounds off.
func (s FlowSpec) Validate() error {
	switch {
	case !finite(s.TokenRate):
		return fmt.Errorf("flow spec: token rate %v is not finite", s.TokenRate)
	case !finite(s.PeakRate):
		return fmt.Errorf("flow spec: peak rate %v is not finite", s.PeakRate)
	case s.TokenRate <= 0:
		return fmt.Errorf("flow spec: token rate %v must be positive", s.TokenRate)
	case s.BucketSize < 0:
		return fmt.Errorf("flow spec: bucket size %v must be non-negative", s.BucketSize)
	case s.PeakRate != 0 && s.PeakRate < s.TokenRate:
		return fmt.Errorf("flow spec: peak rate %v below token rate %v", s.PeakRate, s.TokenRate)
	}
	return nil
}

func finite(r units.Rate) bool { return !math.IsNaN(float64(r)) && !math.IsInf(float64(r), 0) }

// SigmaBits returns σ in bits, the unit the paper's formulas use.
func (s FlowSpec) SigmaBits() float64 { return s.BucketSize.Bits() }

// Envelope returns the maximum volume, in bits, that a conformant flow
// may emit over an interval of length d seconds: σ + ρ·d (capped by the
// peak rate when one is set).
func (s FlowSpec) Envelope(d float64) float64 {
	if d < 0 {
		return 0
	}
	byBucket := s.SigmaBits() + s.TokenRate.BitsPerSecond()*d
	if s.PeakRate > 0 {
		if byPeak := s.PeakRate.BitsPerSecond() * d; byPeak < byBucket {
			return byPeak
		}
	}
	return byBucket
}
