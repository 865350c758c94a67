// Backbone: the paper's scheme deployed at every hop of a multi-node
// path. A premium customer's conformant flow crosses three links; each
// link also carries its own local aggressor, admitted under a declared
// profile and then sending at line rate. With threshold buffer
// management at every output port (O(1) per packet, per the paper's
// scalability argument), the customer loses nothing and keeps its rate
// at every hop, so its end-to-end guarantee survives all three
// contention points; with plain tail-drop FIFO it collapses at the
// first and stays below its rate at every hop after.
//
//	go run ./examples/backbone
package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

const duration = 10.0 // seconds

var (
	nodes    = []string{"n0", "n1", "n2", "n3"}
	linkRate = units.MbitsPerSecond(48)
	rho      = units.MbitsPerSecond(8) // the customer's SLA
	bufSize  = units.KiloBytes(500)
)

// run simulates the path n0 → n1 → n2 → n3 with every link running
// spec. Flow 0, the customer, crosses all three links at its reserved
// rate; flow 1+h enters at link h alone, declared at 32 Mb/s and
// sending at the link rate.
func run(spec string) (topology.Result, error) {
	t := &topology.Topology{Name: "backbone " + spec}
	t.Flows = append(t.Flows, topology.Flow{
		Name:       "customer",
		Spec:       packet.FlowSpec{TokenRate: rho, BucketSize: 500},
		RouteNodes: nodes,
		Source:     topology.SourceCBR,
	})
	for h := 0; h+1 < len(nodes); h++ {
		t.Links = append(t.Links, topology.Link{
			From:      nodes[h],
			To:        nodes[h+1],
			Rate:      linkRate,
			Buffer:    bufSize,
			PropDelay: 0.002,
			Spec:      spec,
		})
		t.Flows = append(t.Flows, topology.Flow{
			Name:       fmt.Sprintf("agg%d", h),
			Spec:       packet.FlowSpec{TokenRate: units.MbitsPerSecond(32), BucketSize: units.KiloBytes(50)},
			RouteNodes: nodes[h : h+2],
			Source:     topology.SourceCBR,
			AvgRate:    linkRate,
		})
	}
	if err := t.Validate(); err != nil {
		return topology.Result{}, err
	}
	return topology.Run(context.Background(), t, topology.Options{Duration: duration, Seed: 1})
}

// carried is the customer's rate out of one link over the run.
func carried(l topology.LinkResult) units.Rate {
	return units.Rate(l.Flows[0].Departed.Bytes.Bits() / duration)
}

func main() {
	fmt.Printf("%d-hop backbone, %v links, %v buffers, 2 ms propagation per hop\n", len(nodes)-1, linkRate, bufSize)
	fmt.Printf("customer: conformant, SLA %v end-to-end; one aggressor per hop, admitted at 32 Mb/s, sending at %v\n\n", rho, linkRate)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "per-hop policy\thop 0 out / drops\thop 1\thop 2\tend-to-end rate\tSLA attainment\tworst delay")
	for _, c := range []struct{ name, spec string }{
		{"tail-drop FIFO", "fifo+none"},
		{"FIFO + thresholds", "fifo+threshold"},
	} {
		res, err := run(c.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "backbone: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprint(tw, c.name)
		for _, l := range res.Links {
			fmt.Fprintf(tw, "\t%v / %d", carried(l), l.Flows[0].Dropped.Packets)
		}
		customer := res.Flows[0]
		fmt.Fprintf(tw, "\t%v\t%.1f%%\t%.1f ms\n", customer.Throughput,
			100*customer.Throughput.BitsPerSecond()/rho.BitsPerSecond(), customer.MaxDelay*1e3)
	}
	tw.Flush()

	fmt.Println("\nEvery hop makes its admission decision from two counters (flow occupancy")
	fmt.Println("and total) — no per-flow scheduling state anywhere on the path.")
}
