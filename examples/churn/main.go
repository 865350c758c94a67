// Churn: flows come and go. Video-call-sized reservations arrive as a
// Poisson process on one link at increasing intensities; the §2.3
// FIFO+BM admission region decides who gets in, and each admitted flow
// gets its own threshold σ + ρB/R, so no other flow's changes when the
// population does. Blocking rises with load as Erlang's loss formula
// predicts for the K flows the region holds, while every admitted flow
// keeps its guarantee (zero conformant loss throughout).
//
//	go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

const (
	hold    = 10.0  // mean holding time, seconds
	horizon = 120.0 // simulated seconds per arrival rate
	seed    = 1
)

var (
	linkRate = units.MbitsPerSecond(48)
	bufSize  = units.MegaBytes(2)
	rates    = []float64{0.5, 1, 2, 4, 8} // arrivals per second

	// template is every arrival: an on-off source shaped to the 2 Mb/s,
	// 40 KB reservation it declares.
	template = topology.Flow{
		Spec: packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(16),
			TokenRate:  units.MbitsPerSecond(2),
			BucketSize: units.KiloBytes(40),
		},
		RouteNodes: []string{"a", "b"},
		Source:     topology.SourceOnOff,
		AvgRate:    units.MbitsPerSecond(2),
		MeanBurst:  units.KiloBytes(40),
		Shaped:     true,
	}
)

// scenario is the study at one arrival rate as a one-link topology:
// copies of tpl arrive as a Poisson process until the horizon, each
// joining on arrival and leaving after an exponential hold. One stream
// drawn from seed fixes the whole timeline.
func scenario(tpl topology.Flow, rate, hold, horizon float64, seed int64) (*topology.Topology, error) {
	t := &topology.Topology{
		Name:  fmt.Sprintf("churn at %g/s", rate),
		Links: []topology.Link{{From: "a", To: "b", Rate: linkRate, Buffer: bufSize, Spec: "fifo+threshold"}},
	}
	rng := sim.NewRand(seed)
	for at := sim.Exponential(rng, 1/rate); at < horizon; at += sim.Exponential(rng, 1/rate) {
		f := tpl
		f.Name = "f" + strconv.Itoa(len(t.Flows))
		t.Flows = append(t.Flows, f)
		t.Events = append(t.Events,
			topology.Event{At: at, Kind: topology.EventJoin, Flow: f.Name},
			topology.Event{At: at + sim.Exponential(rng, hold), Kind: topology.EventLeave, Flow: f.Name})
	}
	return t, t.Validate()
}

// blocking counts the requests arriving from time from on, and those
// of them refused as bandwidth- and as buffer-limited.
func blocking(res *topology.Result, from float64) (requests, bandwidth, buffer int) {
	for _, fr := range res.Flows {
		if fr.JoinAt >= from {
			requests++
		}
	}
	for _, r := range res.Rejections {
		switch {
		case r.At < from:
		case r.Reason == core.BandwidthLimited:
			bandwidth++
		default:
			buffer++
		}
	}
	return requests, bandwidth, buffer
}

// capacity is how many copies of spec the FIFO region admits: the
// largest k with kρ ≤ R (eq. 7) and kσ ≤ B(1 − kρ/R) (eq. 8), in
// integers by multiplying eq. 8 through by R.
func capacity(spec packet.FlowSpec, rate units.Rate, buf units.Bytes) int {
	r, rho, sigma, b := int64(rate), int64(spec.TokenRate), int64(spec.BucketSize), int64(buf)
	k := int64(0)
	for (k+1)*rho <= r && (k+1)*sigma*r <= b*(r-(k+1)*rho) {
		k++
	}
	return int(k)
}

// erlangB is Erlang's loss formula B(K, A) for an M/M/K/K system
// offered A Erlangs, by B(k) = A·B(k−1) / (k + A·B(k−1)), B(0) = 1.
// Admitting identical flows by their declared profile alone is such a
// system, K being the region's capacity.
func erlangB(k int, a float64) float64 {
	b := 1.0
	for i := 1; i <= k; i++ {
		b = a * b / (float64(i) + a*b)
	}
	return b
}

func main() {
	k := capacity(template.Spec, linkRate, bufSize)
	fmt.Printf("%v link, %v buffer; each flow reserves %v with a %v bucket, so eqs. 7-8 admit K = %d\n",
		linkRate, bufSize, template.Spec.TokenRate, template.Spec.BucketSize, k)
	fmt.Printf("mean hold time %g s over %g s; arrival rate swept (offered Erlangs = rate × hold)\n\n", hold, horizon)

	// The rates run concurrently; each row depends on its own scenario.
	results := make([]topology.Result, len(rates))
	err := experiment.ForEachJob(context.Background(), 0, len(rates), nil, nil, func(i int) error {
		t, err := scenario(template, rates[i], hold, horizon, seed)
		if err == nil {
			results[i], err = topology.Run(context.Background(), t, topology.Options{Duration: horizon, Seed: seed})
		}
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		os.Exit(1)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "arrivals/s\toffered Erlangs\tmean active\tblocking\tErlang B(%d)\tbandwidth / buffer\tutilization\tconformant loss\n", k)
	for i, lambda := range rates {
		res := &results[i]
		requests, bandwidth, buffer := blocking(res, 0)
		active := 0.0
		for _, fr := range res.Flows {
			if fr.Admitted {
				active += fr.LeaveAt - fr.JoinAt
			}
		}
		tot := &res.Links[0].Totals
		fmt.Fprintf(tw, "%.1f\t%.0f\t%.1f\t%.1f%%\t%.1f%%\t%d / %d\t%.1f%%\t%.4f%%\n",
			lambda, lambda*hold, active/horizon, 100*float64(bandwidth+buffer)/float64(requests),
			100*erlangB(k, lambda*hold), bandwidth, buffer, 100*res.Links[0].Utilization,
			100*float64(tot.ConformantDropped.Bytes)/float64(tot.Offered.Bytes))
	}
	tw.Flush()

	fmt.Println("\nAdmission (eqs. 7-8) throttles intake as the region fills. Each flow's threshold σ + ρB/R is its")
	fmt.Println("own and never changes, so no admitted flow ever loses a conformant packet: the guarantee survives churn.")
}
