// Churn: flows come and go. Video-call-sized reservations arrive as a
// Poisson process at increasing intensities; the §2.3 FIFO+BM admission
// region decides who gets in, each admitted flow gets its threshold
// σ + ρB/R (its own reservation's, so no other flow's changes when the
// population does), and we watch the Erlang-style trade-off:
// blocking rises with load while every admitted flow keeps its
// guarantee (zero conformant loss throughout).
//
//	go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func main() {
	template := experiment.FlowConfig{
		Spec: packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(16),
			TokenRate:  units.MbitsPerSecond(2),
			BucketSize: units.KiloBytes(40),
		},
		AvgRate:     units.MbitsPerSecond(2),
		MeanBurst:   units.KiloBytes(40),
		Conformance: experiment.Conformant,
	}

	fmt.Println("48 Mb/s link, 2 MB buffer; each flow reserves 2 Mb/s with a 40 KB bucket")
	fmt.Println("mean hold time 10 s; arrival rate swept (offered Erlangs = rate × hold)")
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "arrivals/s\toffered Erlangs\tmean active\tblocking\tutilization\tconformant loss")
	rates := []float64{0.5, 1, 2, 4, 8}
	// The five intensities run concurrently (workers=0 → GOMAXPROCS);
	// SweepChurn guarantees the table is identical to a sequential sweep.
	sweep, err := experiment.SweepChurn(context.Background(), experiment.ChurnConfig{
		Templates: []experiment.FlowConfig{template},
		MeanHold:  10,
		MaxFlows:  64,
		Buffer:    units.MegaBytes(2),
		Duration:  120,
		Warmup:    12,
		Seed:      1,
	}, rates, 1, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		os.Exit(1)
	}
	for i, lambda := range rates {
		res := sweep[i][0]
		fmt.Fprintf(tw, "%.1f\t%.0f\t%.1f\t%.1f%%\t%.1f%%\t%.4f%%\n",
			lambda, lambda*10, res.MeanActive,
			100*res.BlockingProbability, 100*res.Utilization, 100*res.ConformantLoss)
	}
	tw.Flush()

	fmt.Println("\nAdmission (eqs. 7-8) throttles intake as the region fills; a flow's threshold")
	fmt.Println("σ + ρB/R depends on its own reservation only, so it is set once on arrival,")
	fmt.Println("and no admitted flow ever loses a conformant packet — the guarantee survives churn.")
}
