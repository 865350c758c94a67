package main

import (
	"math"
	"testing"

	"bufqos/internal/experiment"
)

// TestHybridTracksWFQAtItsMinimumBuffer pins the example's printed
// claims: the buffer-optimal 3-queue grouping needs less lossless buffer
// than one FIFO, by the eq. 17 savings (which the eq. 9 and eq. 19
// totals agree on to a byte), and at that smaller buffer the hybrid
// loses no conformant traffic and stays within 5 points of per-flow
// WFQ's utilization.
func TestHybridTracksWFQAtItsMinimumBuffer(t *testing.T) {
	flows := trunkFlows()
	p, err := sizeTrunk(experiment.Specs(flows))
	if err != nil {
		t.Fatal(err)
	}
	if p.save <= 0 || p.hybrid >= p.fifo {
		t.Errorf("hybrid needs %v, one FIFO %v: eq. 17 savings %v, want positive", p.hybrid, p.fifo, p.save)
	}
	if d := p.fifo - p.hybrid - p.save; d < -1 || d > 1 {
		t.Errorf("B_FIFO − B_hybrid = %v but eq. 17 gives %v", p.fifo-p.hybrid, p.save)
	}
	util := map[string]float64{}
	for _, spec := range []string{"hybrid+sharing", "wfq+sharing"} {
		res, err := simulate(flows, p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.ConformantLoss != 0 {
			t.Errorf("%s: conformant loss %.4g at the hybrid's minimum buffer, want 0", spec, res.ConformantLoss)
		}
		util[spec] = res.Utilization
	}
	if d := math.Abs(util["hybrid+sharing"] - util["wfq+sharing"]); d > 0.05 {
		t.Errorf("utilization: hybrid %.3f, WFQ %.3f; the hybrid does not track WFQ", util["hybrid+sharing"], util["wfq+sharing"])
	}
}
