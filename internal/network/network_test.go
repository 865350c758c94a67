package network

import (
	"fmt"
	"strings"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

func TestFIFOHopPreservesLongRunConformance(t *testing.T) {
	// A (σ, ρ)-shaped flow that crosses an uncontended FIFO hop stays
	// (σ + ρ·Dmax, ρ)-conformant at the hop's output: FIFO adds at most
	// its maximum delay of burstiness. Composing hops, as the topology
	// engine does, relies on it.
	s := sim.New()
	linkRate := units.MbitsPerSecond(48)
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(4), BucketSize: units.KiloBytes(30)}
	hop := sched.NewLink(s, linkRate, sched.NewFIFO(), buffer.NewTailDrop(units.KiloBytes(200), 1), nil)
	rec := source.NewRecorder(s)
	hop.OnDepart = rec.Receive

	sh := source.NewShaper(s, spec, hop)
	feed := source.NewCBR(s, 0, 500, units.MbitsPerSecond(16), sh)
	feed.Start()
	s.RunUntil(10)

	// Max hop delay: full 200KB buffer at 48 Mb/s.
	dmax := units.KiloBytes(200).Bits() / linkRate.BitsPerSecond()
	out := packet.FlowSpec{
		TokenRate:  spec.TokenRate,
		BucketSize: spec.BucketSize + units.Bytes(spec.TokenRate.BytesPerSecond()*dmax),
	}
	if err := rec.ConformsTo(out, 500); err != nil {
		t.Errorf("hop output exceeds the dilated envelope: %v", err)
	}
}

func TestDeliveryThroughputZeroTime(t *testing.T) {
	s := sim.New()
	d := NewDeliveryLight(s, 1)
	if d.Throughput(0) != 0 {
		t.Error("throughput at t=0 should be 0")
	}
}

func TestDeliveryUnknownFlowPanicsWithFlowID(t *testing.T) {
	s := sim.New()
	d := NewDeliveryLight(s, 2)
	if d.NumFlows() != 2 {
		t.Fatalf("NumFlows = %d, want 2", d.NumFlows())
	}
	for _, flow := range []int{-1, 2, 7} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("flow %d: out-of-range delivery did not panic", flow)
					return
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, fmt.Sprintf("flow %d", flow)) {
					t.Errorf("flow %d: panic %q does not name the flow", flow, msg)
				}
			}()
			d.Receive(&packet.Packet{Flow: flow, Size: 500})
		}()
	}
}
