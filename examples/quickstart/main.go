// Quickstart: protect one flow's rate guarantee with nothing but a
// FIFO queue and a per-flow buffer threshold (Propositions 1–2 of the
// paper, live).
//
// A conformant 8 Mb/s flow shares a 48 Mb/s link and a 1 MB buffer with
// a greedy flow that reserved 32 Mb/s and sends at the full link rate.
// With no buffer management the greedy flow starves the conformant one;
// with the σ + B·ρ/R threshold rule the conformant flow receives its
// reservation and loses nothing.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// The run lasts duration seconds and is measured after warmup.
const duration, warmup = 10.0, 1.0

var (
	linkRate = units.MbitsPerSecond(48)
	bufSize  = units.MegaBytes(1)
	// The conformant flow sends at its reservation; the greedy flow
	// reserved 32 Mb/s and sends at the link rate.
	flows = []packet.FlowSpec{
		{TokenRate: units.MbitsPerSecond(8), BucketSize: 500},
		{TokenRate: units.MbitsPerSecond(32), BucketSize: 500},
	}
)

// outcome is what one run delivered: each flow's rate and the
// conformant flow's loss ratio.
type outcome struct {
	conformant, greedy units.Rate
	loss               float64
}

// run puts both flows on one link built from spec, a scheme of the
// registry, and simulates it.
func run(spec string) (outcome, error) {
	sc, err := scheme.Parse(spec)
	if err != nil {
		return outcome{}, err
	}
	s := sim.New()
	col := stats.NewCollector(len(flows), warmup)
	link, err := sc.NewLink(s, scheme.Config{Specs: flows, LinkRate: linkRate, Buffer: bufSize}, col)
	if err != nil {
		return outcome{}, err
	}
	source.NewCBR(s, 0, 500, flows[0].TokenRate, link).Start()
	source.NewCBR(s, 1, 500, linkRate, link).Start()
	s.RunUntil(duration)
	return outcome{col.FlowThroughput(0, duration), col.FlowThroughput(1, duration), col.LossRatio(0)}, nil
}

func main() {
	fmt.Printf("Scenario: conformant %v flow vs greedy flow, %v FIFO link, %v buffer\n\n", flows[0].TokenRate, linkRate, bufSize)
	for _, c := range []struct{ name, spec string }{
		{"FIFO, no management:", "fifo+none"},
		{"FIFO + thresholds:", "fifo+threshold"},
	} {
		o, err := run(c.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-22s conformant: %6.2f Mb/s (loss %5.2f%%)   greedy: %6.2f Mb/s\n",
			c.name, o.conformant.Mbits(), 100*o.loss, o.greedy.Mbits())
	}

	th, err := core.Thresholds(flows, linkRate, bufSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nthresholds σᵢ + ρᵢ·B/R, scaled to fill the buffer: %v and %v of %v\n", th[0], th[1], bufSize)
	fmt.Println("The conformant flow's guarantee needs no per-flow scheduling — only O(1) admission.")
}
