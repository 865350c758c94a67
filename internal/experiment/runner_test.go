package experiment

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// quickCfg returns a short Table 1 run for tests.
func quickCfg(spec string, buf units.Bytes) *Options {
	return &Options{
		Flows:      Table1Flows(),
		SchemeSpec: spec,
		Buffer:     buf,
		Headroom:   units.KiloBytes(500),
		QueueOf:    Table1QueueOf(),
		Duration:   4,
		Warmup:     0.5,
		Seed:       1,
	}
}

// run is Run without a deadline.
func run(o *Options) (Result, error) { return Run(context.Background(), o) }

// TestRunRejectsNonFiniteDuration: a single run's horizon must be
// positive and finite. NaN and +Inf once reached the kernel, where the
// self-re-arming sources ran forever; zero still takes the default.
func TestRunRejectsNonFiniteDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), -1} {
		o := quickCfg("fifo+threshold", units.MegaBytes(1))
		o.Duration = d
		if _, err := run(o); err == nil || !strings.Contains(err.Error(), "duration") {
			t.Errorf("Duration %v: error %v, want one naming the duration", d, err)
		}
	}
	o := quickCfg("fifo+threshold", units.MegaBytes(1))
	o.Duration = 0
	if _, err := NewPlane(o); err != nil {
		t.Errorf("Duration 0 (the default): %v", err)
	}
}

func TestRunAllSchemesSmoke(t *testing.T) {
	for _, s := range goldenSpecs {
		res, err := run(quickCfg(s, units.MegaBytes(1)))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Utilization <= 0.3 || res.Utilization > 1.001 {
			t.Errorf("%v: utilization %v out of range", s, res.Utilization)
		}
		if len(res.FlowThroughput) != 9 || len(res.FlowLoss) != 9 {
			t.Errorf("%v: result vectors wrong length", s)
		}
		for i, l := range res.FlowLoss {
			if l < 0 || l > 1 {
				t.Errorf("%v: flow %d loss %v out of [0,1]", s, i, l)
			}
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := run(quickCfg("fifo+threshold", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(quickCfg("fifo+threshold", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different results")
	}
	c := quickCfg("fifo+threshold", units.MegaBytes(1))
	c.Seed = 2
	b2, err := run(c)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b2) {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestThresholdsProtectConformantFlows(t *testing.T) {
	// The core claim of the paper: with enough buffer, FIFO+thresholds
	// drives conformant loss to ≈0 while plain FIFO keeps losing.
	noBM, err := run(quickCfg("fifo+none", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	thr, err := run(quickCfg("fifo+threshold", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	if noBM.ConformantLoss < 0.005 {
		t.Errorf("no-BM conformant loss %v unexpectedly low — aggressors not hurting", noBM.ConformantLoss)
	}
	if thr.ConformantLoss > noBM.ConformantLoss/4 {
		t.Errorf("thresholds loss %v not clearly below no-BM loss %v", thr.ConformantLoss, noBM.ConformantLoss)
	}
}

func TestNoBMFillsLinkAtSmallBuffer(t *testing.T) {
	// Figure 1's left edge: plain FIFO hits ~90% utilization with just
	// 500 KB while FIFO+thresholds is visibly below it.
	noBM, err := run(quickCfg("fifo+none", units.KiloBytes(500)))
	if err != nil {
		t.Fatal(err)
	}
	thr, err := run(quickCfg("fifo+threshold", units.KiloBytes(500)))
	if err != nil {
		t.Fatal(err)
	}
	if noBM.Utilization < 0.85 {
		t.Errorf("no-BM utilization %v at 500KB, want ≥ 0.85", noBM.Utilization)
	}
	if thr.Utilization >= noBM.Utilization {
		t.Errorf("threshold utilization %v not below no-BM %v at small buffer",
			thr.Utilization, noBM.Utilization)
	}
}

func TestSharingRecoversUtilization(t *testing.T) {
	// Figure 4 vs Figure 1: sharing beats fixed partitioning at equal
	// buffer.
	fixed, err := run(quickCfg("fifo+threshold", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	share, err := run(quickCfg("fifo+sharing", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	if share.Utilization <= fixed.Utilization {
		t.Errorf("sharing utilization %v not above fixed %v", share.Utilization, fixed.Utilization)
	}
}

func TestWFQSharesExcessProportionally(t *testing.T) {
	// Figure 3's key contrast: under WFQ+thresholds flows 6 and 8 split
	// excess ∝ reservations (0.4 vs 2.0 Mb/s → ratio 5).
	cfg := quickCfg("wfq+threshold", units.MegaBytes(3))
	cfg.Duration = 8
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t6 := res.FlowThroughput[6].Mbits()
	t8 := res.FlowThroughput[8].Mbits()
	ratio := t8 / t6
	if ratio < 2.5 {
		t.Errorf("WFQ flow8/flow6 throughput ratio %v (t6=%v t8=%v), want ≫ 1", ratio, t6, t8)
	}
}

func TestHybridTracksWFQ(t *testing.T) {
	// Figures 8–9: the 3-queue hybrid stays close to per-flow WFQ with
	// sharing on both utilization and conformant loss.
	wfq, err := run(quickCfg("wfq+sharing", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := run(quickCfg("hybrid+sharing", units.MegaBytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hyb.Utilization-wfq.Utilization) > 0.1 {
		t.Errorf("hybrid utilization %v far from WFQ %v", hyb.Utilization, wfq.Utilization)
	}
	if hyb.ConformantLoss > wfq.ConformantLoss+0.03 {
		t.Errorf("hybrid conformant loss %v much worse than WFQ %v", hyb.ConformantLoss, wfq.ConformantLoss)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run(&Options{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := quickCfg("hybrid+sharing", units.MegaBytes(1))
	bad.QueueOf = []int{0}
	if _, err := run(bad); err == nil {
		t.Error("mismatched QueueOf accepted")
	}
	if _, err := run(quickCfg("lifo+threshold", units.MegaBytes(1))); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := run(quickCfg("", units.MegaBytes(1))); err == nil {
		t.Error("unset scheme accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	// The labels the figures print for the paper's schemes.
	for spec, want := range map[string]string{
		"fifo+none": "FIFO", "wfq+none": "WFQ",
		"fifo+threshold": "thresholds", "fifo+sharing": "sharing",
		"hybrid+sharing": "hybrid", "fifo+red": "RED",
	} {
		if got := specLabel(spec); !strings.Contains(got, want) {
			t.Errorf("specLabel(%q) = %q, want containing %q", spec, got, want)
		}
	}
}

func TestOfferedRatesMatchTable(t *testing.T) {
	// The measured offered rates at the multiplexer should approximate
	// the AvgRate column of Table 1 (conformant flows arrive shaped at
	// their token rate ≈ avg rate; aggressive flows at their avg rate).
	cfg := quickCfg("fifo+none", units.MegaBytes(5))
	cfg.Duration = 12
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := Table1Flows()
	for i, f := range flows {
		got := res.OfferedRate[i].Mbits()
		want := f.AvgRate.Mbits()
		if math.Abs(got-want)/want > 0.4 {
			t.Errorf("flow %d offered %v Mb/s, want ≈ %v (±40%%)", i, got, want)
		}
	}
}

func TestFIFODelayBoundedByBufferDrainTime(t *testing.T) {
	// The §1 scaling argument: FIFO queueing delay is bounded by the
	// time to drain a full buffer, B·8/R (plus the packet in service).
	// "The worst case delay caused by a 1MByte buffer feeding an OC-48
	// link is less than 3.5msec" — here on the 48 Mb/s link a 1 MB
	// buffer bounds delay by 167 ms.
	cfg := quickCfg("fifo+none", units.MegaBytes(1))
	cfg.TrackDelays = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDelay == 0 {
		t.Fatal("no delays recorded")
	}
	bound := (units.MegaBytes(1).Bits() + 500*8) / 48e6
	if res.MaxDelay > bound {
		t.Errorf("worst FIFO delay %v exceeds buffer drain bound %v", res.MaxDelay, bound)
	}
	if res.MeanDelay <= 0 || res.MeanDelay > res.MaxDelay {
		t.Errorf("mean delay %v inconsistent with max %v", res.MeanDelay, res.MaxDelay)
	}
	if len(res.FlowMaxDelay) != 9 {
		t.Fatalf("per-flow delays missing")
	}
	for i, d := range res.FlowMaxDelay {
		if d > res.MaxDelay {
			t.Errorf("flow %d max delay %v exceeds global max %v", i, d, res.MaxDelay)
		}
	}
}

func TestOC48DelayClaim(t *testing.T) {
	// Reproduce the §1 numerical claim directly: 1 MB buffer on a
	// 2.4 Gb/s OC-48 link bounds FIFO delay below 3.5 ms, even under
	// heavy overload. Scale the Table 1 sources up 50× to keep the link
	// saturated.
	flows := Table1Flows()
	for i := range flows {
		flows[i].Spec.PeakRate *= 50
		flows[i].Spec.TokenRate *= 50
		flows[i].AvgRate *= 50
	}
	res, err := run(&Options{
		Flows:       flows,
		SchemeSpec:  "fifo+none",
		LinkRate:    units.Rate(2.4e9),
		Buffer:      units.MegaBytes(1),
		Duration:    1,
		Warmup:      0.1,
		Seed:        3,
		TrackDelays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDelay == 0 {
		t.Fatal("no delays recorded")
	}
	if res.MaxDelay >= 0.0035 {
		t.Errorf("OC-48 worst delay %v s, paper claims < 3.5 ms", res.MaxDelay)
	}
}

func TestRPQSchemeUrgentDelaySeparation(t *testing.T) {
	// RPQ+thresholds gives the low-burst-ratio flows (classes 0-1)
	// lower worst-case delays than FIFO+thresholds does under the same
	// load — the ablation claim behind including reference [10].
	fifoCfg := quickCfg("fifo+threshold", units.MegaBytes(2))
	fifoCfg.TrackDelays = true
	fifo, err := run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	rpqCfg := quickCfg("rpq+threshold", units.MegaBytes(2))
	rpqCfg.TrackDelays = true
	rpq, err := run(rpqCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flows 0-2 (50KB/2Mb = 0.2s ratio... class 2) — use flow 6/7
	// (50KB/0.4Mb = 1s ratio, class 3) vs flows 3-5 (100KB/8Mb = 0.1s,
	// class 1): the class-1 flows should see relatively better delays
	// under RPQ than the class-3 flows, compared to FIFO where order is
	// blind.
	relFIFO := fifo.FlowMaxDelay[3] / (fifo.FlowMaxDelay[6] + 1e-9)
	relRPQ := rpq.FlowMaxDelay[3] / (rpq.FlowMaxDelay[6] + 1e-9)
	if relRPQ >= relFIFO {
		t.Errorf("RPQ did not improve class separation: rel delay %.3f (RPQ) vs %.3f (FIFO)", relRPQ, relFIFO)
	}
}

func TestAdaptiveSharingRestrainsAggressors(t *testing.T) {
	// Under the §5 adaptive policy, aggressive flows (non-adaptive)
	// deliver less than under plain sharing, while conformant flows
	// remain protected.
	shareCfg := quickCfg("fifo+sharing", units.MegaBytes(3))
	share, err := run(shareCfg)
	if err != nil {
		t.Fatal(err)
	}
	adCfg := quickCfg("fifo+adaptive", units.MegaBytes(3))
	ad, err := run(adCfg)
	if err != nil {
		t.Fatal(err)
	}
	aggShare := share.FlowThroughput[6].Mbits() + share.FlowThroughput[7].Mbits() + share.FlowThroughput[8].Mbits()
	aggAd := ad.FlowThroughput[6].Mbits() + ad.FlowThroughput[7].Mbits() + ad.FlowThroughput[8].Mbits()
	if aggAd > aggShare+0.5 {
		t.Errorf("adaptive policy did not restrain aggressors: %v vs %v Mb/s", aggAd, aggShare)
	}
	if ad.ConformantLoss > share.ConformantLoss+0.01 {
		t.Errorf("adaptive policy hurt conformant flows: %v vs %v", ad.ConformantLoss, share.ConformantLoss)
	}
}

func TestMixedPacketSizesProtected(t *testing.T) {
	// Voice-sized (160 B) and MTU-sized (1500 B) conformant flows share
	// the link with an aggressor; byte-based thresholds protect both
	// regardless of packet granularity.
	flows := []FlowConfig{
		{
			Spec: packet.FlowSpec{PeakRate: units.MbitsPerSecond(2),
				TokenRate: units.MbitsPerSecond(0.5), BucketSize: units.KiloBytes(10)},
			AvgRate: units.MbitsPerSecond(0.5), MeanBurst: units.KiloBytes(10),
			Conformance: Conformant, PacketSize: 160,
		},
		{
			Spec: packet.FlowSpec{PeakRate: units.MbitsPerSecond(24),
				TokenRate: units.MbitsPerSecond(8), BucketSize: units.KiloBytes(60)},
			AvgRate: units.MbitsPerSecond(8), MeanBurst: units.KiloBytes(60),
			Conformance: Conformant, PacketSize: 1500,
		},
		{
			Spec: packet.FlowSpec{PeakRate: units.MbitsPerSecond(40),
				TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(50)},
			AvgRate: units.MbitsPerSecond(30), MeanBurst: units.KiloBytes(250),
			Conformance: Aggressive, PacketSize: 500,
		},
	}
	res, err := run(&Options{
		Flows:      flows,
		SchemeSpec: "fifo+threshold",
		Buffer:     units.MegaBytes(1),
		Duration:   8,
		Warmup:     1,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConformantLoss > 0 {
		t.Errorf("conformant loss %v with mixed packet sizes", res.ConformantLoss)
	}
	for i := 0; i < 2; i++ {
		if res.FlowThroughput[i].BitsPerSecond() < res.OfferedRate[i].BitsPerSecond()*0.99 {
			t.Errorf("flow %d (size %v) delivered below offered", i, flows[i].PacketSize)
		}
	}
}
