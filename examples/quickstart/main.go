// Quickstart: protect one flow's rate guarantee with nothing but a
// FIFO queue and a per-flow buffer threshold (Proposition 1 of the
// paper, live).
//
// A conformant 8 Mb/s flow shares a 48 Mb/s link and a 1 MB buffer with
// a greedy flow that offers the full link rate. With no buffer
// management the greedy flow starves the conformant one; with the
// B·ρ/R threshold rule the conformant flow receives its reservation to
// the byte.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

func main() {
	linkRate := units.MbitsPerSecond(48)
	bufSize := units.MegaBytes(1)
	reserved := units.MbitsPerSecond(8)

	fmt.Println("Scenario: conformant 8 Mb/s flow vs greedy flow, 48 Mb/s FIFO link, 1 MB buffer")
	fmt.Println()

	run := func(name string, mgr buffer.Manager) {
		s := sim.New()
		col := stats.NewCollector(2, 1.0)
		link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, col)

		// Flow 0: conformant CBR at its reserved rate.
		victim := source.NewCBR(s, 0, 500, reserved, link)
		victim.Start()
		// Flow 1: greedy, offers the entire link rate.
		greedy := source.NewCBR(s, 1, 500, linkRate, link)
		greedy.Start()

		const dur = 10.0
		s.RunUntil(dur)

		fmt.Printf("%-22s conformant: %6.2f Mb/s (loss %5.2f%%)   greedy: %6.2f Mb/s\n",
			name,
			col.FlowThroughput(0, dur).Mbits(), 100*col.LossRatio(0),
			col.FlowThroughput(1, dur).Mbits())
	}

	// Benchmark 1: shared buffer, no management — the greedy flow
	// captures the buffer and with it the link.
	run("FIFO, no management:", buffer.NewTailDrop(bufSize, 2))

	// The paper's scheme: threshold B·ρ/R for the reserved flow, the
	// rest for everyone else.
	th := core.PeakRateThreshold(reserved, linkRate, bufSize)
	run("FIFO + thresholds:", buffer.NewFixedThreshold(bufSize, []units.Bytes{
		th + 500, // one packet of slack for packetization
		bufSize - th - 500,
	}))

	fmt.Println()
	fmt.Printf("threshold used: B·ρ/R = %v of the %v buffer\n", th, bufSize)
	fmt.Println("The conformant flow's guarantee needs no per-flow scheduling — only O(1) admission.")
}
