package network

import (
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// The allocation gates of the packet path's last stage, beside the
// kernel's (internal/sim).

// TestDeliveryReceivesWithoutAllocating: delivery is where a data
// packet's life ends, and for a closed-loop flow where an ACK's begins;
// both come from and go back to the pool, whether the packet is booked
// now (Receive) or ahead of the clock (ReceiveAt).
func TestDeliveryReceivesWithoutAllocating(t *testing.T) {
	for _, closed := range []bool{false, true} {
		for _, ahead := range []bool{false, true} {
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
				if ahead {
					d.ReceiveAt(p, 0.01)
				} else {
					d.Receive(p)
				}
			}
			receive()
			if allocs := testing.AllocsPerRun(1000, receive); allocs != 0 {
				t.Errorf("closed=%v ahead=%v: delivery allocates %v/op in steady state, want 0", closed, ahead, allocs)
			}
			if closed && acked != 1002 {
				t.Errorf("acked %d segments, want 1002", acked)
			}
		}
	}
}

// TestTCPRoundTripWithoutAllocating wires one NewReno sender through
// the flow layer and a lossless pipe to a delivery endpoint and back the
// way the engines do — a stored handler per direction, the packet
// riding in the event — and requires a steady-state segment round trip
// (emission, pacing and RTO re-arm, propagation, reassembly, ACK,
// feedback dispatch, window update) to allocate nothing.
func TestTCPRoundTripWithoutAllocating(t *testing.T) {
	s := sim.New()
	d := NewDeliveryLight(s, 1)
	const oneWay = 0.005
	deliver := d.Receive
	flows := NewFlows([]Flow{{
		Sim:        s,
		Entry:      source.SinkFunc(func(p *packet.Packet) { s.AfterPacket(oneWay, deliver, p) }),
		PacketSize: 1500,
		Rate:       units.MbitsPerSecond(100),
		Source:     SourceTCP,
	}}, 1)
	feedback := flows.Feedback
	d.SetAcker(0, TCPAckSize, func(ap *packet.Packet) { s.AfterPacket(oneWay, feedback, ap) })
	flows.Start(0).Fire()
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
	if r := flows.TCP(0).Retransmits(); r != 0 {
		t.Errorf("%d retransmissions on a lossless pipe", r)
	}
}
