// Hybrid router: the §4 architecture sized with the paper's formulas.
//
// A carrier aggregates three service classes onto one 48 Mb/s trunk —
// the example at the end of §4.1: "low bandwidth and burstiness IP
// telephony flows could be assigned to one queue, while higher
// bandwidth and burstiness video on demand streams would be mapped onto
// another queue". We:
//
//  1. search for the buffer-optimal grouping into 3 queues,
//
//  2. allocate queue rates by Proposition 3 (eq. 14/16),
//
//  3. size per-queue buffers by eq. 18 and report the eq. 17 savings,
//
//  4. run the hybrid router and compare it against per-flow WFQ.
//
//     go run ./examples/hybridrouter
package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

var linkRate = units.MbitsPerSecond(48)

// trunkFlows are the three service classes: telephony (smooth,
// low-rate), video on demand (bursty, mid-rate), bulk data (very
// bursty, low floor, aggressive).
func trunkFlows() []experiment.FlowConfig {
	mkFlow := func(peakMb, avgMb, bucketKB, tokenMb, burstKB float64, conf experiment.Conformance) experiment.FlowConfig {
		return experiment.FlowConfig{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(peakMb),
				TokenRate:  units.MbitsPerSecond(tokenMb),
				BucketSize: units.KiloBytes(bucketKB),
			},
			AvgRate:     units.MbitsPerSecond(avgMb),
			MeanBurst:   units.KiloBytes(burstKB),
			Conformance: conf,
		}
	}
	var flows []experiment.FlowConfig
	for i := 0; i < 4; i++ { // telephony
		flows = append(flows, mkFlow(2, 0.5, 5, 0.5, 5, experiment.Conformant))
	}
	for i := 0; i < 3; i++ { // video on demand
		flows = append(flows, mkFlow(24, 6, 120, 6, 120, experiment.Conformant))
	}
	for i := 0; i < 2; i++ { // bulk data, aggressive
		flows = append(flows, mkFlow(40, 6, 60, 1, 300, experiment.Aggressive))
	}
	return flows
}

// plan is the §4 sizing of the trunk: the buffer-optimal grouping, its
// Prop. 3 rates and eq. 18 per-queue buffers, and the lossless buffers
// of one FIFO (eq. 9) and of the hybrid (eq. 19) with the eq. 17
// savings between them.
type plan struct {
	queueOf            []int
	groups             []core.Group
	rates              []units.Rate
	minBuf             []units.Bytes
	fifo, hybrid, save units.Bytes
}

func sizeTrunk(specs []packet.FlowSpec) (p plan, err error) {
	if p.queueOf, err = core.OptimizeGroupingExhaustive(specs, 3); err != nil {
		return p, err
	}
	k := 0
	for _, q := range p.queueOf {
		k = max(k, q+1)
	}
	if p.groups, err = core.GroupFlows(specs, p.queueOf, k); err != nil {
		return p, err
	}
	if p.rates, err = core.AllocateHybrid(linkRate, p.groups); err != nil {
		return p, err
	}
	if p.minBuf, err = core.HybridBufferPerQueue(linkRate, p.groups); err != nil {
		return p, err
	}
	if p.hybrid, err = core.HybridBufferTotal(linkRate, p.groups); err != nil {
		return p, err
	}
	if p.fifo, err = core.RequiredBufferFIFO(specs, linkRate); err != nil {
		return p, err
	}
	p.save, err = core.BufferSavings(linkRate, p.groups)
	return p, err
}

// simulate runs the trunk for 10 s behind spec at the hybrid's minimum
// buffer, with a quarter of it as sharing headroom.
func simulate(flows []experiment.FlowConfig, p plan, spec string) (experiment.Result, error) {
	return experiment.Run(context.Background(), experiment.NewOptions(
		experiment.WithFlows(flows),
		experiment.WithSchemeSpec(spec),
		experiment.WithBuffer(p.hybrid),
		experiment.WithHeadroom(p.hybrid/4),
		experiment.WithQueues(p.queueOf),
		experiment.WithDuration(10),
		experiment.WithWarmup(1),
		experiment.WithSeed(7),
	))
}

func main() {
	flows := trunkFlows()
	specs := experiment.Specs(flows)
	p, err := sizeTrunk(specs)
	check(err)
	fmt.Printf("optimal grouping of %d flows into 3 queues: %v\n\n", len(flows), p.queueOf)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "queue\tσ̂\tρ̂\trate Rᵢ (eq.16)\tmin buffer Bᵢ (eq.18)")
	for q, g := range p.groups {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\t%v\n", q, g.Sigma, g.Rho, p.rates[q], p.minBuf[q])
	}
	tw.Flush()

	fmt.Printf("\nlossless buffer: single FIFO %v, hybrid %v (saves %v, eq. 17)\n", p.fifo, p.hybrid, p.save)
	fmt.Printf("WFQ would need %v but per-flow sorted queues for %d flows\n\n",
		core.RequiredBufferWFQ(specs), len(flows))

	// Run both systems at the hybrid's minimum buffer.
	for _, spec := range []string{"hybrid+sharing", "wfq+sharing"} {
		scheme, err := experiment.ParseScheme(spec)
		check(err)
		res, err := simulate(flows, p, spec)
		check(err)
		fmt.Printf("%-16s utilization %.1f%%  conformant loss %.3f%%\n",
			scheme.String()+":", 100*res.Utilization, 100*res.ConformantLoss)
	}
	fmt.Println("\nThe 3-queue hybrid needs a sorted list of 3 entries — not", len(flows), "—")
	fmt.Println("yet tracks per-flow WFQ on both utilization and protection.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybridrouter: %v\n", err)
		os.Exit(1)
	}
}
