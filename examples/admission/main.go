// Admission control: the §2.3 schedulability regions in action.
//
// A stream of flow requests (video-conference-sized reservations)
// arrives at a 48 Mb/s link. Two controllers with the same buffer
// decide admission: one for a WFQ scheduler (eqs. 5-6) and one for the
// FIFO + buffer-management scheme (eqs. 7-8). The FIFO region is
// buffer-limited earlier — equation (10)'s 1/(1-u) inflation — which is
// the price of O(1) scheduling; the example shows exactly where each
// controller stops admitting and why.
//
//	go run ./examples/admission
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

var (
	linkRate = units.MbitsPerSecond(48)
	bufSize  = units.MegaBytes(2)
	// request is every arriving flow's reservation.
	request = packet.FlowSpec{
		TokenRate:  units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(60),
		PeakRate:   units.MbitsPerSecond(16),
	}
	// buffers are the FIFO+BM buffer sizes of the second table.
	buffers = []units.Bytes{units.KiloBytes(500), units.MegaBytes(1), units.MegaBytes(2),
		units.MegaBytes(4), units.MegaBytes(8), units.MegaBytes(16)}
)

// fill admits requests into an empty controller of discipline d with
// buffer b until it refuses one, and returns it with the reason.
func fill(d core.Discipline, b units.Bytes) (*core.SerialAdmitter, core.RejectReason) {
	c := core.NewSerialAdmitter(d, linkRate, b)
	for {
		if r := c.Admit(request); r != core.Accepted {
			return c, r
		}
	}
}

func main() {
	wfq := core.NewSerialAdmitter(core.DisciplineWFQ, linkRate, bufSize)
	fifo := core.NewSerialAdmitter(core.DisciplineFIFO, linkRate, bufSize)

	fmt.Printf("link %v, buffer %v; each request reserves (σ=%v, ρ=%v)\n\n",
		linkRate, bufSize, request.BucketSize, request.TokenRate)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "request\tu after\tWFQ (eqs. 5-6)\tFIFO+BM (eqs. 7-8)")
	for i := 1; i <= 24; i++ {
		wres := wfq.Admit(request)
		fres := fifo.Admit(request)
		u := float64(i) * request.TokenRate.BitsPerSecond() / linkRate.BitsPerSecond()
		fmt.Fprintf(tw, "%d\t%.3f\t%v\t%v\n", i, u, wres, fres)
		if wres != core.Accepted && fres != core.Accepted {
			break
		}
	}
	tw.Flush()

	fmt.Printf("\nadmitted: WFQ %d flows (u = %.2f), FIFO+BM %d flows (u = %.2f)\n",
		wfq.NumFlows(), wfq.Utilization(), fifo.NumFlows(), fifo.Utilization())

	// Show the knob the paper highlights: more buffer buys FIFO+BM
	// admission capacity, ever less of it per byte as u nears 1.
	fmt.Println("\nFIFO+BM admitted flows as the buffer grows (same request mix):")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "buffer\tadmitted\tfinal u\tlimit")
	for _, b := range buffers {
		c, last := fill(core.DisciplineFIFO, b)
		fmt.Fprintf(tw, "%v\t%d\t%.2f\t%v\n", b, c.NumFlows(), c.Utilization(), last)
	}
	tw.Flush()
	fmt.Println("\nThe count grows with the buffer but never reaches the bandwidth bound")
	fmt.Printf("of %d flows that WFQ meets with %v: FIFO+BM needs Σσ/(1-u) (eq. 9),\n", int(linkRate/request.TokenRate), bufSize)
	fmt.Println("and the 1/(1-u) blow-up of equation (10) is the scheme's fundamental trade.")
}
