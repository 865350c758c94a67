package topology

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"bufqos/internal/metrics"
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

// TestEngineBuildsInConstantAllocations is construction's gate for the
// topology engine: each flow's entry, sources and shaper sit in one
// slab per kind and its scenario events carry its slab element, so
// doubling the flows on the same 80-link network adds no more than a
// few mallocs to newEngine, where a heap object per flow would add
// thousands. What remains is per link and per shard.
func TestEngineBuildsInConstantAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not pinned under -short (the race detector's runs)")
	}
	build := func(flows int) uint64 {
		topo, err := Generate(fmt.Sprintf("random?links=80,flows=%d,seed=1", flows))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := newEngine(topo, Options{Duration: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	m1, m2 := build(8000), build(16000)
	t.Logf("newEngine: %d mallocs at 8000 flows, %d at 16000", m1, m2)
	if m2 > m1+32 {
		t.Errorf("newEngine at 16000 flows costs %d mallocs against %d at 8000: per-flow state is no longer in slabs", m2, m1)
	}
}

// TestEngineHeapHoldsLineHeads is the delay lines' structural gate,
// with no clock in it: on bench's net-open network the kernel's heap
// holds about one event per flow plus a few per link, because the
// packets on a wire wait in their link's delay line and only the
// line's head is in the heap. Before the lines, those packets were
// three quarters of a 31,407-deep heap.
func TestEngineHeapHoldsLineHeads(t *testing.T) {
	topo, err := Generate("random?links=80,flows=8000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if _, err := Run(context.Background(), topo, Options{Duration: 0.01, Seed: 1, SkipLinkFlows: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	depth := reg.Gauge("sim.heap_depth").Max()
	bound := int64(len(topo.Flows) + 4*len(topo.Links) + 256)
	t.Logf("heap depth high-water %d, bound %d", depth, bound)
	if depth > bound {
		t.Errorf("heap depth reached %d, above flows + 4·links + 256 = %d: packets on the wire are back in the heap", depth, bound)
	}
}
