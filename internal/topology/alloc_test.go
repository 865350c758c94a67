package topology

import (
	"fmt"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// TestEngineForwardsWithoutAllocating is the topology engine's
// allocation gate, beside the kernel's (internal/sim): with every
// source started, a packet's whole multi-hop life — emission from the
// pool, three links, two propagation delays carried by the event
// itself through the per-link handlers, delivery, release — allocates
// nothing. An over-subscribed flow keeps the rejection path in the mix.
func TestEngineForwardsWithoutAllocating(t *testing.T) {
	spec := packet.FlowSpec{PeakRate: units.MbitsPerSecond(8), TokenRate: units.MbitsPerSecond(4), BucketSize: units.KiloBytes(10)}
	topo := &Topology{
		Name: "line",
		Links: []Link{
			{From: "a", To: "b", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(200), PropDelay: 0.001, Spec: "fifo+threshold"},
			{From: "b", To: "c", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(200), PropDelay: 0.002, Spec: "wfq+sharing", Headroom: units.KiloBytes(20)},
			{From: "c", To: "d", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(200), Spec: "fifo+threshold"},
		},
	}
	for i := 0; i < 4; i++ {
		topo.Flows = append(topo.Flows, Flow{
			Name: fmt.Sprintf("cbr%d", i), Spec: spec, RouteNodes: []string{"a", "b", "c", "d"},
			Source: SourceCBR, AvgRate: units.MbitsPerSecond(4),
		})
	}
	// Far above its (σ, ρ) profile and the link's spare capacity: the
	// first hop's threshold rejects most of it.
	topo.Flows = append(topo.Flows, Flow{
		Name: "hog", Spec: spec, RouteNodes: []string{"a", "b", "c", "d"},
		Source: SourceCBR, AvgRate: units.MbitsPerSecond(60),
	})
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(topo, Options{Duration: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := e.shards[0].s
	s.RunUntil(1) // sources started, buffers at their standing levels
	if allocs := testing.AllocsPerRun(5000, func() { s.Step() }); allocs != 0 {
		t.Errorf("%v allocs per event in steady state, want 0", allocs)
	}
	e.collect()
	if got := e.res.Flows[0].Delivered.Packets; got == 0 {
		t.Error("nothing delivered")
	}
	if got := e.res.Links[0].Totals.Dropped.Packets; got == 0 {
		t.Error("first hop rejected nothing: the drop path was not in the measurement")
	}
}
