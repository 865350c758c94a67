package main

import (
	"math"
	"testing"

	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// TestBlockingMatchesErlangB holds the engine's admission under churn
// to an oracle that knows nothing of it. Admission decides on declared
// profiles alone, so copies of one profile arriving as a Poisson
// process and holding for exponential times form an M/M/K/K loss
// system, K being the closed-form capacity of the FIFO region: the
// measured blocking must be Erlang's B(K, A). The flows send a shaped
// 4 kb/s CBR, so the check costs few packets; arrivals in the first
// 10 s, while the population fills, are not counted.
func TestBlockingMatchesErlangB(t *testing.T) {
	const (
		hold    = 1.0
		horizon = 300.0
		warmup  = 10.0
	)
	probe := template
	probe.Source = topology.SourceCBR
	probe.AvgRate = 4 * units.Kbps
	k := capacity(probe.Spec, linkRate, bufSize)
	if k != 16 {
		t.Fatalf("capacity %d, want 16 for 2 Mb/s, 40 KB flows on 48 Mb/s, 2 MB", k)
	}
	worst := 0.0
	for seed := int64(1); seed <= 3; seed++ {
		for _, a := range []float64{10, 20, 40, 80} {
			topo, err := scenario(probe, a/hold, hold, horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := topology.Run(t.Context(), topo, topology.Options{Duration: horizon, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			requests, bandwidth, buffer := blocking(&res, warmup)
			blocked := bandwidth + buffer
			got, want := float64(blocked)/float64(requests), erlangB(k, a)
			worst = max(worst, math.Abs(got-want))
			if math.Abs(got-want) > 0.02 {
				t.Errorf("seed %d, A = %g: blocking %.4f (%d of %d), Erlang B(%d, A) = %.4f",
					seed, a, got, blocked, requests, k, want)
			}
		}
	}
	t.Logf("largest deviation from Erlang B: %.4f", worst)
}

// TestChurnKeepsEveryGuarantee runs the example's on-off population at
// all five arrival rates, up to 8/s, for 30 s each. Its subtests hold
// the two churn claims: every guarantee topology.Verify asserts holds
// and the link drops no conformant packet, however the population
// changes; and blocking does not fall as the load rises, ending above
// zero.
func TestChurnKeepsEveryGuarantee(t *testing.T) {
	const horizon = 30.0
	topos := make([]*topology.Topology, len(rates))
	results := make([]topology.Result, len(rates))
	for i, rate := range rates {
		topo, err := scenario(template, rate, hold, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := topology.Run(t.Context(), topo, topology.Options{Duration: horizon, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		topos[i], results[i] = topo, res
	}
	t.Run("GuaranteesSurvivePopulationChanges", func(t *testing.T) {
		for i, rate := range rates {
			for _, a := range topology.Verify(topos[i], &results[i]) {
				if a.Err != nil {
					t.Errorf("rate %g/s: %s %s: %v", rate, a.Name, a.Detail, a.Err)
				}
			}
			if d := results[i].Links[0].Totals.ConformantDropped; d.Packets != 0 {
				t.Errorf("rate %g/s: %d conformant packets dropped", rate, d.Packets)
			}
		}
	})
	t.Run("BlockingGrowsWithLoad", func(t *testing.T) {
		last := 0.0
		for i, rate := range rates {
			requests, bandwidth, buffer := blocking(&results[i], 0)
			b := float64(bandwidth+buffer) / float64(requests)
			if b < last {
				t.Errorf("rate %g/s: blocking %.4f below %.4f at the previous rate", rate, b, last)
			}
			last = b
		}
		if last == 0 {
			t.Errorf("no request refused at %g/s: admission never engaged", rates[len(rates)-1])
		}
	})
}
