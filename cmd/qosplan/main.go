// Command qosplan is the analytic companion to qsim: it evaluates the
// paper's closed-form results for a workload without simulating.
//
//	qosplan -workload table1            # thresholds, buffer requirements
//	qosplan -workload table2 -queues 3  # hybrid allocation (Prop. 3)
//	qosplan -curve                      # eq. (10) buffer-vs-utilization
//
// Output covers: per-flow thresholds (Prop. 2 / §3.2), FIFO vs WFQ
// minimum buffers (§2.3), the reserved-utilization inflation curve
// (eq. 10), and for -queues > 1 the hybrid rate allocation, per-queue
// buffers, and buffer savings (eqs. 14–19).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/cli"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func main() {
	var (
		workload = flag.String("workload", "table1", "flow set: table1 or table2")
		rateMb   = flag.Float64("rate", 48, "link rate in Mb/s")
		bufferMB = flag.Float64("buffer", 1, "total buffer in MB (for threshold display)")
		queues   = flag.Int("queues", 3, "hybrid queue count (0 to skip hybrid analysis)")
		curve    = flag.Bool("curve", false, "print the eq. (10) buffer-inflation curve and exit")
		optimize = flag.Bool("optimize", false, "search for the buffer-optimal flow grouping")
	)
	flag.Parse()

	if *curve {
		printCurve()
		return
	}

	var flows []experiment.FlowConfig
	var queueOf []int
	switch *workload {
	case "table1":
		flows, queueOf = experiment.Table1Flows(), experiment.Table1QueueOf()
	case "table2":
		flows, queueOf = experiment.Table2Flows(), experiment.Table2QueueOf()
	default:
		cli.Fatalf("unknown workload %q", *workload)
	}
	specs := experiment.Specs(flows)
	r := units.MbitsPerSecond(*rateMb)
	b := units.MegaBytes(*bufferMB)

	u := core.ReservedUtilization(specs, r)
	fmt.Printf("workload %s: %d flows on a %v link, reserved utilization u = %.3f\n",
		*workload, len(specs), r, u)
	fmt.Printf("offered load: %.2f of link capacity\n\n", experiment.OfferedLoad(flows, r))

	th, err := core.Thresholds(specs, r, b)
	if err != nil {
		cli.Fatalf("thresholds: %v", err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "flow\tσ\tρ\tthreshold (B=%v)\n", b)
	for i, s := range specs {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\n", i, s.BucketSize, s.TokenRate, th[i])
	}
	tw.Flush()

	wfqB := core.RequiredBufferWFQ(specs)
	fmt.Printf("\nminimum lossless buffer, WFQ (eq. 6):  %v\n", wfqB)
	if fifoB, err := core.RequiredBufferFIFO(specs, r); err == nil {
		fmt.Printf("minimum lossless buffer, FIFO (eq. 9): %v  (inflation 1/(1-u) = %.2f)\n",
			fifoB, core.BufferInflation(u))
	} else {
		fmt.Printf("FIFO requirement: %v\n", err)
	}

	if *optimize {
		var err error
		if len(specs) <= 12 {
			queueOf, err = core.OptimizeGroupingExhaustive(specs, *queues)
		} else {
			queueOf, err = core.OptimizeGroupingDP(specs, *queues)
		}
		if err != nil {
			cli.Fatalf("grouping: %v", err)
		}
		fmt.Printf("\noptimized grouping: %v\n", queueOf)
	}

	if *queues > 1 {
		printHybrid(specs, queueOf, *queues, r)
	}
}

// printHybrid reports the §4 analysis for a grouping: Proposition 3
// alphas, per-queue rates (eq. 16), buffers (eq. 18), total (eq. 19),
// and the savings over a single FIFO queue (eq. 17).
func printHybrid(specs []packet.FlowSpec, queueOf []int, k int, r units.Rate) {
	groups, err := core.GroupFlows(specs, queueOf, k)
	if err != nil {
		cli.Fatalf("hybrid grouping: %v", err)
	}
	alphas := core.OptimalAlphas(groups)
	rates, err := core.AllocateHybrid(r, groups)
	if err != nil {
		fmt.Printf("\nhybrid analysis skipped: %v\n", err)
		return
	}
	perQueue, err := core.HybridBufferPerQueue(r, groups)
	if err != nil {
		cli.Fatalf("hybrid buffers: %v", err)
	}
	fmt.Printf("\nhybrid system with %d queues (grouping %v):\n", k, queueOf)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "queue\tσ̂\tρ̂\tα (eq.14)\tRᵢ (eq.16)\tBᵢ (eq.18)")
	for q, g := range groups {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%.4f\t%v\t%v\n", q, g.Sigma, g.Rho, alphas[q], rates[q], perQueue[q])
	}
	tw.Flush()
	total, err := core.HybridBufferTotal(r, groups)
	if err != nil {
		cli.Fatalf("hybrid total: %v", err)
	}
	savings, err := core.BufferSavings(r, groups)
	if err != nil {
		cli.Fatalf("savings: %v", err)
	}
	fmt.Printf("hybrid total buffer (eq. 19): %v\n", total)
	fmt.Printf("savings vs single FIFO (eq. 17): %v\n", savings)
}

func printCurve() {
	fmt.Println("reserved utilization u -> FIFO/WFQ buffer inflation 1/(1-u) (eq. 10)")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "u\tinflation")
	for _, u := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.683, 0.7, 0.8, 0.9, 0.95, 0.99} {
		fmt.Fprintf(tw, "%.3f\t%.2f\n", u, core.BufferInflation(u))
	}
	tw.Flush()
}
