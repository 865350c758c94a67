package main

import "testing"

// TestThresholdsKeepTheSLAAtEveryHop pins the example's printed claim:
// with thresholds the customer loses nothing and carries at least 95%
// of its reserved rate out of every hop; with tail-drop it carries less
// than that out of every hop.
func TestThresholdsKeepTheSLAAtEveryHop(t *testing.T) {
	managed, err := run("fifo+threshold")
	if err != nil {
		t.Fatal(err)
	}
	taildrop, err := run("fifo+none")
	if err != nil {
		t.Fatal(err)
	}
	if len(managed.Rejections)+len(taildrop.Rejections) != 0 {
		t.Fatalf("every flow must be admitted: %+v %+v", managed.Rejections, taildrop.Rejections)
	}
	floor := 0.95 * rho.BitsPerSecond()
	for h := range managed.Links {
		if d := managed.Links[h].Flows[0].Dropped.Packets; d != 0 {
			t.Errorf("thresholds: hop %d dropped %d customer packets", h, d)
		}
		if got := carried(managed.Links[h]).BitsPerSecond(); got < floor {
			t.Errorf("thresholds: customer carries %v b/s out of hop %d, below 95%% of its %v SLA", got, h, rho)
		}
		if got := carried(taildrop.Links[h]).BitsPerSecond(); got >= floor {
			t.Errorf("tail-drop: customer carries %v b/s out of hop %d, the SLA held without thresholds", got, h)
		}
	}
	if got := managed.Flows[0].Throughput; got.BitsPerSecond() < floor {
		t.Errorf("thresholds: end-to-end rate %v below 95%% of the %v SLA", got, rho)
	}
}
