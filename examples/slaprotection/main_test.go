package main

import (
	"testing"

	"bufqos/internal/scheme"
)

// TestThresholdsDeliverWhatCustomersOffer pins the example's printed
// claim: behind either scheduler, per-flow thresholds lose none of a
// customer's traffic and carry at least 99% of what it offered (the
// rest is still queued when the window closes), while without buffer
// management every customer loses traffic and gets less than that.
func TestThresholdsDeliverWhatCustomersOffer(t *testing.T) {
	for _, spec := range specs {
		res, err := run(spec)
		if err != nil {
			t.Fatal(err)
		}
		managed := scheme.MustParse(spec).ManagerName() == "threshold"
		if managed && res.ConformantLoss != 0 {
			t.Errorf("%s: conformant loss %.4g, want 0", spec, res.ConformantLoss)
		}
		if !managed && res.ConformantLoss == 0 {
			t.Errorf("%s: no conformant loss; the aggressors should cost the customers", spec)
		}
		for id := 0; id < customers; id++ {
			lost, got := res.FlowLoss[id], delivered(res, id)
			switch {
			case managed && (lost != 0 || got < 0.99):
				t.Errorf("%s: customer %d lost %.4g and got %.4f of its offered rate, want 0 and >= 0.99", spec, id, lost, got)
			case !managed && (lost == 0 || got >= 0.99):
				t.Errorf("%s: customer %d lost %.4g and got %.4f of its offered rate; the SLA held without thresholds", spec, id, lost, got)
			}
		}
	}
}
