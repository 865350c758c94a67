package main

import "testing"

// TestThresholdProtectsTheReservation pins the example's printed claim:
// behind a FIFO with per-flow thresholds the conformant flow loses
// nothing and receives at least 99% of its reservation beside a greedy
// flow, while with a shared tail-drop buffer it is starved below half
// of it.
func TestThresholdProtectsTheReservation(t *testing.T) {
	rho := flows[0].TokenRate.BitsPerSecond()
	managed, err := run("fifo+threshold")
	if err != nil {
		t.Fatal(err)
	}
	if managed.loss != 0 || managed.conformant.BitsPerSecond() < 0.99*rho {
		t.Errorf("thresholds: conformant flow got %v with loss %.4g, want >= 99%% of %v and no loss",
			managed.conformant, managed.loss, flows[0].TokenRate)
	}
	taildrop, err := run("fifo+none")
	if err != nil {
		t.Fatal(err)
	}
	if taildrop.conformant.BitsPerSecond() >= 0.5*rho {
		t.Errorf("tail-drop: conformant flow got %v, the greedy flow did not starve it", taildrop.conformant)
	}
}
