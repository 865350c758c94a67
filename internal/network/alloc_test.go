package network

import (
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// The allocation gates of the packet path's last stage, beside the
// kernel's (internal/sim).

// TestDeliveryReceivesWithoutAllocating: delivery is where a data
// packet's life ends, and for a closed-loop flow where an ACK's begins;
// both come from and go back to the pool.
func TestDeliveryReceivesWithoutAllocating(t *testing.T) {
	for _, closed := range []bool{false, true} {
		s := sim.New()
		d := NewDeliveryLight(s, 1)
		acked := 0
		if closed {
			d.SetAcker(0, TCPAckSize, func(ap *packet.Packet) {
				acked++
				s.Release(ap)
			})
		}
		seq := uint64(0)
		receive := func() {
			p := s.NewPacket()
			p.Size, p.Seq = 1500, seq
			seq++
			d.Receive(p)
		}
		receive()
		if allocs := testing.AllocsPerRun(1000, receive); allocs != 0 {
			t.Errorf("closed=%v: Receive allocates %v/op in steady state, want 0", closed, allocs)
		}
		if closed && acked != 1002 {
			t.Errorf("acked %d segments, want 1002", acked)
		}
	}
}

// TestTCPRoundTripWithoutAllocating wires one NewReno sender through a
// lossless pipe to a delivery endpoint and back the way the engines do —
// a stored handler per direction, the packet riding in the event — and
// requires a steady-state segment round trip (emission, pacing and RTO
// re-arm, propagation, reassembly, ACK, window update) to allocate
// nothing.
func TestTCPRoundTripWithoutAllocating(t *testing.T) {
	s := sim.New()
	d := NewDeliveryLight(s, 1)
	const oneWay = 0.005
	deliver := func(p *packet.Packet) {
		p.Arrived = s.Now()
		d.Receive(p)
	}
	snd := source.NewTCP(s, source.TCPConfig{Flow: 0, SegmentSize: 1500, PaceRate: units.MbitsPerSecond(100)},
		source.SinkFunc(func(p *packet.Packet) { s.AfterPacket(oneWay, deliver, p) }))
	ackArrived := func(ap *packet.Packet) { snd.OnAck(ap) }
	d.SetAcker(0, TCPAckSize, func(ap *packet.Packet) { s.AfterPacket(oneWay, ackArrived, ap) })
	snd.Start()
	// Slow start doubles the window each RTT; run until the pacing rate,
	// not the window, limits the sender, so the send ring has stopped
	// growing.
	for d.Packets(0) < 20_000 && s.Step() {
	}
	before := d.Packets(0)
	if allocs := testing.AllocsPerRun(5000, func() { s.Step() }); allocs != 0 {
		t.Errorf("%v allocs per event in steady state, want 0", allocs)
	}
	if d.Packets(0) == before {
		t.Error("no segment delivered while measuring")
	}
	if snd.Retransmits() != 0 {
		t.Errorf("%d retransmissions on a lossless pipe", snd.Retransmits())
	}
}

// TestRouterForwardsWithoutAllocating: a departed packet crosses the
// router's propagation delay in the event itself.
func TestRouterForwardsWithoutAllocating(t *testing.T) {
	s := sim.New()
	r := NewRouter(s, "r", units.MbitsPerSecond(48), sched.NewFIFO(), buffer.NewTailDrop(units.KiloBytes(50), 1), nil, 0.001)
	d := NewDeliveryLight(s, 1)
	r.SetRoute(0, d.Receive)
	hop := func() {
		p := s.NewPacket()
		p.Size, p.Created = 500, s.Now()
		r.Receive(p)
		for s.Step() {
		}
	}
	hop()
	if allocs := testing.AllocsPerRun(1000, hop); allocs != 0 {
		t.Errorf("forwarding allocates %v/op in steady state, want 0", allocs)
	}
	if d.Packets(0) != 1002 {
		t.Errorf("delivered %d packets, want 1002", d.Packets(0))
	}
}
