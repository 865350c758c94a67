package network_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// Multi-hop paths are run by the topology engine, which wires its flows
// through this package's Flows and ends every route in a Delivery. The
// tests here drive small topology literals through topology.Run and
// check what a path of hops must do end to end.

// line builds a validated path n0 → n1 → … over links (their From/To
// are filled in) carrying flows, each routed from node first to node
// last.
func line(t *testing.T, links []topology.Link, flows []topology.Flow, routes [][2]int) *topology.Topology {
	t.Helper()
	nodes := make([]string, len(links)+1)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
	}
	for i := range links {
		links[i].From, links[i].To = nodes[i], nodes[i+1]
	}
	for i := range flows {
		flows[i].RouteNodes = nodes[routes[i][0] : routes[i][1]+1]
	}
	topo := &topology.Topology{Name: t.Name(), Links: links, Flows: flows}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func run(t *testing.T, topo *topology.Topology, duration float64, seed int64) topology.Result {
	t.Helper()
	res, err := topology.Run(context.Background(), topo, topology.Options{Duration: duration, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPathDeliversEndToEnd(t *testing.T) {
	hop := topology.Link{Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1), Spec: "fifo+none"}
	topo := line(t, []topology.Link{hop, hop},
		[]topology.Flow{{Spec: packet.FlowSpec{TokenRate: units.MbitsPerSecond(8), BucketSize: 500}, Source: topology.SourceCBR}},
		[][2]int{{0, 2}})
	res := run(t, topo, 2, 1)

	f := res.Flows[0]
	if f.Delivered.Packets == 0 {
		t.Fatal("nothing delivered end-to-end")
	}
	// Only the packet emitted at the horizon may still be on the wire.
	if lost := f.Offered.Packets - f.Delivered.Packets; lost < 0 || lost > 1 {
		t.Errorf("delivered %d of %d packets end-to-end", f.Delivered.Packets, f.Offered.Packets)
	}
	// Both hops carried every delivered packet and dropped none.
	for _, l := range res.Links {
		if got := l.Flows[0].Departed.Packets; got < f.Delivered.Packets {
			t.Errorf("%s departed %d, fewer than the %d delivered", l.Name, got, f.Delivered.Packets)
		}
		if d := l.Flows[0].Dropped.Packets; d != 0 {
			t.Errorf("%s dropped %d packets", l.Name, d)
		}
	}
}

func TestEndToEndDelayIsSumOfHops(t *testing.T) {
	// Uncontended 2-hop path, packets spaced wider than a transmission:
	// every end-to-end delay is exactly two transmission times plus the
	// two propagation delays.
	rate := units.MbitsPerSecond(8)
	const prop = 0.003
	hop := topology.Link{Rate: rate, Buffer: units.MegaBytes(1), PropDelay: prop, Spec: "fifo+none"}
	topo := line(t, []topology.Link{hop, hop},
		[]topology.Flow{{Spec: packet.FlowSpec{TokenRate: units.Mbps, BucketSize: 500}, Source: topology.SourceCBR}},
		[][2]int{{0, 2}})
	f := run(t, topo, 1, 1).Flows[0]

	want := 2*units.TransmissionTime(500, rate) + 2*prop
	if f.Delivered.Packets == 0 {
		t.Fatal("nothing delivered")
	}
	if math.Abs(f.MaxDelay-want) > 1e-9 || math.Abs(f.MeanDelay-want) > 1e-9 {
		t.Errorf("end-to-end delay mean %v max %v, want %v", f.MeanDelay, f.MaxDelay, want)
	}
}

func TestBottleneckDropsAtSecondHop(t *testing.T) {
	// Hop 1 fast, hop 2 half the rate with a small buffer: losses occur
	// only at hop 2. The flow is admitted at 8 Mb/s and sends at 40.
	topo := line(t,
		[]topology.Link{
			{Name: "fast", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1), Spec: "fifo+none"},
			{Name: "slow", Rate: units.MbitsPerSecond(24), Buffer: units.KiloBytes(20), Spec: "fifo+none"},
		},
		[]topology.Flow{{
			Spec:    packet.FlowSpec{TokenRate: units.MbitsPerSecond(8), BucketSize: units.KiloBytes(10)},
			Source:  topology.SourceCBR,
			AvgRate: units.MbitsPerSecond(40),
		}},
		[][2]int{{0, 2}})
	res := run(t, topo, 2, 1)

	if d := res.Links[0].Flows[0].Dropped.Packets; d != 0 {
		t.Errorf("fast hop dropped %d packets", d)
	}
	if d := res.Links[1].Flows[0].Dropped.Packets; d == 0 {
		t.Error("bottleneck hop dropped nothing despite 40 Mb/s into 24 Mb/s")
	}
	// Delivered rate caps at the bottleneck.
	if thr := res.Flows[0].Throughput; thr.BitsPerSecond() > 24e6*1.02 {
		t.Errorf("delivered %v above bottleneck rate", thr)
	}
}

func TestPerHopThresholdsProtectAcrossHops(t *testing.T) {
	// The backbone story: a conformant flow crosses two hops, each with
	// threshold buffer management; a local aggressor at EACH hop,
	// admitted at 32 Mb/s and sending at the link rate, cannot starve
	// it. Flow 0 is the end-to-end conformant flow; flows 1 and 2 are
	// hop-local aggressors.
	linkRate := units.MbitsPerSecond(48)
	rho := units.MbitsPerSecond(8)
	hop := topology.Link{Rate: linkRate, Buffer: units.KiloBytes(500), Spec: "fifo+threshold"}
	aggressor := topology.Flow{
		Spec:    packet.FlowSpec{TokenRate: units.MbitsPerSecond(32), BucketSize: units.KiloBytes(50)},
		Source:  topology.SourceCBR,
		AvgRate: linkRate,
	}
	topo := line(t, []topology.Link{hop, hop},
		[]topology.Flow{
			{Spec: packet.FlowSpec{TokenRate: rho, BucketSize: 500}, Source: topology.SourceCBR},
			aggressor, aggressor,
		},
		[][2]int{{0, 2}, {0, 1}, {1, 2}})
	res := run(t, topo, 10, 1)

	if thr := res.Flows[0].Throughput; thr.BitsPerSecond() < rho.BitsPerSecond()*0.93 {
		t.Errorf("end-to-end conformant throughput %v, want ≈ %v", thr, rho)
	}
	for _, l := range res.Links {
		if d := l.Flows[0].Dropped.Packets; d != 0 {
			t.Errorf("%s dropped %d conformant packets", l.Name, d)
		}
	}
}

// mixedPath builds a path whose hops use the given registry specs, with
// propagation delay props[i] after hop i, carrying three shaped on-off
// flows end to end.
func mixedPath(t *testing.T, specs []string, props []float64) *topology.Topology {
	mk := func(peak, tok, bucketKB float64) topology.Flow {
		return topology.Flow{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(peak),
				TokenRate:  units.MbitsPerSecond(tok),
				BucketSize: units.KiloBytes(bucketKB),
			},
			Shaped: true,
		}
	}
	links := make([]topology.Link, len(specs))
	for i, spec := range specs {
		links[i] = topology.Link{
			Rate:      units.MbitsPerSecond(48),
			Buffer:    units.KiloBytes(500),
			Headroom:  units.KiloBytes(100),
			PropDelay: props[i],
			Spec:      spec,
		}
	}
	end := len(specs)
	return line(t, links, []topology.Flow{mk(16, 2, 50), mk(40, 8, 100), mk(16, 4, 50)},
		[][2]int{{0, end}, {0, end}, {0, end}})
}

// TestMixedSchemePathDeterministicAcrossSeeds: a path mixing two
// different registry specs per hop — fixed thresholds at hop 1, WFQ
// with headroom sharing at hop 2 — delivers sane end-to-end statistics,
// and running the identical scenario again is bit-deterministic for
// every seed.
func TestMixedSchemePathDeterministicAcrossSeeds(t *testing.T) {
	topo := mixedPath(t, []string{"fifo+threshold", "wfq+sharing"}, []float64{0.001, 0})
	for _, seed := range []int64{1, 7, 42} {
		a := run(t, topo, 5, seed)
		b := run(t, topo, 5, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: identical mixed-scheme runs diverged:\n%+v\n%+v", seed, a, b)
		}
		var total units.Bytes
		for i, f := range a.Flows {
			if f.Delivered.Bytes <= 0 || f.Delivered.Packets <= 0 {
				t.Errorf("seed %d: flow %d delivered nothing end-to-end", seed, i)
			}
			total += f.Delivered.Bytes
		}
		// Shaped token rates sum to 14 Mb/s — delivery must stay inside
		// the link capacity but carry a meaningful share of the offer.
		if got := total.Bits() / 5; got > 48e6 {
			t.Errorf("seed %d: delivered %v b/s above the 48 Mb/s link", seed, got)
		} else if got < 1e6 {
			t.Errorf("seed %d: delivered only %v b/s end-to-end", seed, got)
		}
	}
}

// TestThreeHopMixedSchemeDeterministicAcrossWorkers: running the same
// seeds of a three-hop mixed-scheme path on the experiment worker pool
// yields bit-identical results for any worker count.
func TestThreeHopMixedSchemeDeterministicAcrossWorkers(t *testing.T) {
	topo := mixedPath(t, []string{"fifo+threshold", "wfq+sharing", "drr+dynthresh?alpha=2"}, []float64{0, 0.0005, 0.001})
	seeds := []int64{2, 13, 29, 31, 47, 53}
	want := make([]topology.Result, len(seeds))
	for i, seed := range seeds {
		want[i] = run(t, topo, 5, seed)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got := make([]topology.Result, len(seeds))
		err := experiment.ForEachJob(context.Background(), workers, len(seeds), nil, nil, func(i int) error {
			res, err := topology.Run(context.Background(), topo, topology.Options{Duration: 5, Seed: seeds[i]})
			got[i] = res
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results diverged from sequential baseline:\n%+v\n%+v", workers, got, want)
		}
	}
}
