package network

import (
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// TestFlowsWireEveryChain starts one flow of each source kind, behind
// each regulator, into a recorder of its own: every packet carries its
// flow's id, a shaped flow leaves conformant, a metered one is colored,
// a stopped one goes quiet, and a flow without a source never emits.
func TestFlowsWireEveryChain(t *testing.T) {
	s := sim.New()
	recs := make([]*source.Recorder, 4)
	for i := range recs {
		recs[i] = source.NewRecorder(s)
	}
	shaped := packet.FlowSpec{PeakRate: units.MbitsPerSecond(16), TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(10)}
	metered := packet.FlowSpec{TokenRate: units.Mbps, BucketSize: 500}
	flows := NewFlows([]Flow{
		{Sim: s, Entry: recs[0], Spec: shaped, PacketSize: 500, Rate: units.MbitsPerSecond(4), MeanBurst: units.KiloBytes(20),
			Source: SourceOnOff, Regulator: RegulatorShaper},
		{Sim: s, Entry: recs[1], Spec: metered, PacketSize: 500, Rate: units.MbitsPerSecond(4),
			Source: SourceCBR, Regulator: RegulatorMeter},
		{Sim: s, Entry: recs[2], PacketSize: 500, Rate: units.MbitsPerSecond(8), Source: SourceTCP},
		{Sim: s, Entry: recs[3], Spec: shaped, PacketSize: 500},
	}, 1)
	for i := range recs {
		s.AtHandler(0, flows.Start(i))
	}
	s.AtHandler(0.5, flows.Stop(1))
	s.RunUntil(2)

	for i, rec := range recs[:3] {
		if len(rec.Packets) == 0 {
			t.Fatalf("flow %d emitted nothing", i)
		}
		for _, p := range rec.Packets {
			if p.Flow != i {
				t.Fatalf("flow %d emitted a packet of flow %d", i, p.Flow)
			}
		}
	}
	if err := recs[0].ConformsTo(shaped, 0); err != nil {
		t.Errorf("shaped flow: %v", err)
	}
	green, red := 0, 0
	for _, p := range recs[1].Packets {
		if p.Conformant {
			green++
		} else {
			red++
		}
	}
	if green == 0 || red == 0 {
		t.Errorf("metered flow at 4× its rate: %d conformant, %d excess packets", green, red)
	}
	// 4 Mb/s of 500-byte packets for the half second before the stop.
	if n := len(recs[1].Packets); n < 499 || n > 502 {
		t.Errorf("stopped CBR flow emitted %d packets, want ≈ 500", n)
	}
	if n := len(recs[3].Packets); n != 0 {
		t.Errorf("a flow without a source emitted %d packets", n)
	}
	if flows.TCP(2) == nil || flows.TCP(0) != nil || flows.TCP(3) != nil {
		t.Error("TCP must return the sender of the tcp flow only")
	}
}

// TestFlowsFeedbackReachesTheSender: a dropped segment reaches its
// sender, which releases it; feedback naming a flow without a sender is
// released by the layer. A second release of either panics.
func TestFlowsFeedbackReachesTheSender(t *testing.T) {
	s := sim.New()
	rec := source.NewRecorder(s)
	flows := NewFlows([]Flow{
		{Sim: s, Entry: rec, PacketSize: 500, Rate: units.MbitsPerSecond(8), Source: SourceTCP},
		{Sim: s, Entry: rec, PacketSize: 500, Rate: units.MbitsPerSecond(8), Source: SourceCBR},
	}, 1)
	flows.Start(0).Fire()
	for flow := range 2 {
		p := s.NewPacket()
		p.Flow, p.Size = flow, 500
		flows.Feedback(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("flow %d: feedback packet was not released", flow)
				}
			}()
			s.Release(p)
		}()
	}
	if got := flows.TCP(0).DropsSeen(); got != 1 {
		t.Errorf("sender saw %d drops, want 1", got)
	}
}

// TestNewFlowsBuildsInConstantAllocations: the layer's slabs are one
// allocation per kind whatever the flow count, and starting an on-off
// flow — seeding its random stream in the slab included — allocates
// nothing.
func TestNewFlowsBuildsInConstantAllocations(t *testing.T) {
	build := func(n int) float64 {
		chains := make([]Flow, n)
		for i := range chains {
			chains[i] = Flow{Source: Source(1 + i%3), Regulator: Regulator(i % 3)}
		}
		return testing.AllocsPerRun(10, func() { NewFlows(chains, 1) })
	}
	if small, large := build(100), build(10000); large != small {
		t.Errorf("NewFlows costs %v allocations at 100 flows and %v at 10⁴", small, large)
	}

	const n = 1000
	s := sim.New()
	s.Reserve(2 * n) // AllocsPerRun starts every flow twice
	rec := source.NewRecorder(s)
	spec := packet.FlowSpec{PeakRate: units.MbitsPerSecond(16), TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(10)}
	chains := make([]Flow, n)
	for i := range chains {
		chains[i] = Flow{Sim: s, Entry: rec, Spec: spec, PacketSize: 500, Rate: units.MbitsPerSecond(2),
			MeanBurst: units.KiloBytes(20), Source: SourceOnOff, Regulator: Regulator(i % 3)}
	}
	flows := NewFlows(chains, 1)
	if got := testing.AllocsPerRun(1, func() {
		for i := range n {
			flows.Start(i).Fire()
		}
	}); got != 0 {
		t.Errorf("starting %d on-off flows allocates %v times, want 0", n, got)
	}
}
