package bufqos_test

import (
	"context"
	"fmt"
	"testing"

	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/units"
)

// Ablation benchmarks probe the design choices DESIGN.md calls out:
// headroom sizing, flow grouping, packet size, the Dynamic-Threshold
// and adaptive-sharing alternatives, and the RPQ middle ground. Each
// reports its comparison through b.ReportMetric.

// ablationRun runs cfg at the ablations' common horizon and seed.
func ablationRun(b *testing.B, cfg experiment.Options) experiment.Result {
	b.Helper()
	cfg.Duration = 4
	cfg.Warmup = 0.5
	cfg.Seed = 11
	res, err := experiment.Run(context.Background(), &cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationHeadroom contrasts H = 0 against a generous headroom
// at the small buffer where the difference shows (cf. Figure 7).
func BenchmarkAblationHeadroom(b *testing.B) {
	var lossNoH, lossH float64
	for i := 0; i < b.N; i++ {
		base := experiment.Options{
			Flows:      experiment.Table1Flows(),
			SchemeSpec: "fifo+sharing",
			Buffer:     units.KiloBytes(200),
		}
		noH := base
		noH.Headroom = 0
		lossNoH = ablationRun(b, noH).ConformantLoss
		withH := base
		withH.Headroom = units.KiloBytes(150)
		lossH = ablationRun(b, withH).ConformantLoss
	}
	b.ReportMetric(lossNoH, "loss@H0")
	b.ReportMetric(lossH, "loss@H150K")
}

// BenchmarkAblationGrouping compares the paper's by-class grouping, the
// exhaustive optimum, and a deliberately bad interleaved grouping on
// the analytic hybrid buffer requirement (eq. 19).
func BenchmarkAblationGrouping(b *testing.B) {
	specs := experiment.Specs(experiment.Table1Flows())
	r := experiment.DefaultLinkRate
	var paperKB, optKB, badKB float64
	for i := 0; i < b.N; i++ {
		for _, g := range []struct {
			name    string
			queueOf []int
			out     *float64
		}{
			{"paper", experiment.Table1QueueOf(), &paperKB},
			{"bad", []int{0, 1, 2, 0, 1, 2, 0, 1, 2}, &badKB},
		} {
			groups, err := core.GroupFlows(specs, g.queueOf, 3)
			if err != nil {
				b.Fatal(err)
			}
			total, err := core.HybridBufferTotal(r, groups)
			if err != nil {
				b.Fatal(err)
			}
			*g.out = total.KB()
		}
		best, err := core.OptimizeGroupingExhaustive(specs, 3)
		if err != nil {
			b.Fatal(err)
		}
		groups, err := core.GroupFlows(specs, best, 3)
		if err != nil {
			b.Fatal(err)
		}
		total, err := core.HybridBufferTotal(r, groups)
		if err != nil {
			b.Fatal(err)
		}
		optKB = total.KB()
	}
	b.ReportMetric(paperKB, "paper-KB")
	b.ReportMetric(optKB, "optimal-KB")
	b.ReportMetric(badKB, "interleaved-KB")
}

// BenchmarkAblationPacketSize checks the byte-granularity claim: the
// threshold scheme's protection is insensitive to packet size (one MTU
// of slack is all packetization costs).
func BenchmarkAblationPacketSize(b *testing.B) {
	var loss100, loss500, loss1500 float64
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			size units.Bytes
			out  *float64
		}{
			{100, &loss100}, {500, &loss500}, {1500, &loss1500},
		} {
			cfg := experiment.Options{
				Flows:      experiment.Table1Flows(),
				SchemeSpec: "fifo+threshold",
				Buffer:     units.KiloBytes(500),
				PacketSize: c.size,
			}
			*c.out = ablationRun(b, cfg).ConformantLoss
		}
	}
	b.ReportMetric(loss100, "loss@100B")
	b.ReportMetric(loss500, "loss@500B")
	b.ReportMetric(loss1500, "loss@1500B")
}

// BenchmarkAblationDynamicThreshold compares Choudhury–Hahne dynamic
// thresholds [1] with the paper's sharing scheme at equal buffer.
func BenchmarkAblationDynamicThreshold(b *testing.B) {
	var dtLoss, shLoss, dtUtil, shUtil float64
	for i := 0; i < b.N; i++ {
		dt := ablationRun(b, experiment.Options{
			Flows:      experiment.Table1Flows(),
			SchemeSpec: "fifo+dynthresh",
			Buffer:     units.MegaBytes(1),
		})
		dtLoss, dtUtil = dt.ConformantLoss, dt.Utilization
		sh := ablationRun(b, experiment.Options{
			Flows:      experiment.Table1Flows(),
			SchemeSpec: "fifo+sharing",
			Buffer:     units.MegaBytes(1),
			Headroom:   units.KiloBytes(250),
		})
		shLoss, shUtil = sh.ConformantLoss, sh.Utilization
	}
	b.ReportMetric(dtLoss, "DT-loss")
	b.ReportMetric(shLoss, "sharing-loss")
	b.ReportMetric(dtUtil, "DT-util")
	b.ReportMetric(shUtil, "sharing-util")
}

// BenchmarkAblationAdaptiveSharing quantifies the §5 adaptive policy:
// aggressive-flow throughput under plain vs adaptive sharing.
func BenchmarkAblationAdaptiveSharing(b *testing.B) {
	var aggPlain, aggAdaptive float64
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			scheme string
			out    *float64
		}{
			{"fifo+sharing", &aggPlain},
			{"fifo+adaptive", &aggAdaptive},
		} {
			res := ablationRun(b, experiment.Options{
				Flows:      experiment.Table1Flows(),
				SchemeSpec: c.scheme,
				Buffer:     units.MegaBytes(3),
				Headroom:   units.KiloBytes(500),
			})
			*c.out = res.FlowThroughput[6].Mbits() +
				res.FlowThroughput[7].Mbits() + res.FlowThroughput[8].Mbits()
		}
	}
	b.ReportMetric(aggPlain, "aggr-mbps-sharing")
	b.ReportMetric(aggAdaptive, "aggr-mbps-adaptive")
}

// BenchmarkAblationRPQ compares the worst-case delay of a tight-class
// flow under RPQ+thresholds vs FIFO+thresholds.
func BenchmarkAblationRPQ(b *testing.B) {
	var fifoDelay, rpqDelay float64
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			scheme string
			out    *float64
		}{
			{"fifo+threshold", &fifoDelay},
			{"rpq+threshold", &rpqDelay},
		} {
			cfg := experiment.Options{
				Flows:       experiment.Table1Flows(),
				SchemeSpec:  c.scheme,
				Buffer:      units.MegaBytes(2),
				TrackDelays: true,
			}
			res := ablationRun(b, cfg)
			// Relative worst delay of a tight-class flow (flow 3,
			// class 1) against a loose-class flow (flow 6, class 3):
			// below 1 means the scheduler is honoring classes.
			*c.out = res.FlowMaxDelay[3] / (res.FlowMaxDelay[6] + 1e-9)
		}
	}
	b.ReportMetric(fifoDelay, "fifo-rel-delay")
	b.ReportMetric(rpqDelay, "rpq-rel-delay")
}

// BenchmarkAblationAllSchedulers runs the Table 1 workload at a fixed
// buffer under every scheduler family (paired with fixed thresholds)
// and reports utilization and conformant loss — the scheduling-vs-
// buffer-management design space in one table.
func BenchmarkAblationAllSchedulers(b *testing.B) {
	schemes := []string{
		"fifo+threshold",
		"wfq+threshold",
		"rpq+threshold",
		"drr+threshold",
		"edf+threshold",
		"vc+threshold",
	}
	for _, s := range schemes {
		s := s
		b.Run(s, func(b *testing.B) {
			var util, loss float64
			for i := 0; i < b.N; i++ {
				res := ablationRun(b, experiment.Options{
					Flows:      experiment.Table1Flows(),
					SchemeSpec: s,
					Buffer:     units.MegaBytes(1),
				})
				util, loss = res.Utilization, res.ConformantLoss
			}
			b.ReportMetric(util, "util")
			b.ReportMetric(loss, "conf-loss")
		})
	}
}

// BenchmarkAblationSchedulerScaling measures WFQ per-packet cost as the
// flow count grows — the log N term the paper engineers away. Compare
// the sub-benchmark ns/op across flow counts against the flat cost of
// BenchmarkAdmitFixedThreshold.
func BenchmarkAblationSchedulerScaling(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("flows-%d", n), func(b *testing.B) {
			weights := make([]units.Rate, n)
			for i := range weights {
				weights[i] = units.Mbps
			}
			now := 0.0
			w := sched.NewWFQ(units.Rate(float64(n)*2e6), func() float64 { return now }, weights)
			pkts := make([]*packet.Packet, n)
			for i := range pkts {
				pkts[i] = &packet.Packet{Flow: i, Size: 500}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Enqueue(pkts[i%n])
				now += 1e-7
				if w.Len() > n {
					w.Dequeue()
				}
			}
		})
	}
}

// BenchmarkChurn runs the dynamic-population experiment: Poisson flow
// arrivals through admission control with threshold recomputation. It
// reports blocking probability and conformant loss — the guarantee
// must survive population changes.
func BenchmarkChurn(b *testing.B) {
	var blocking, loss, util float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunChurn(context.Background(), experiment.ChurnConfig{
			Templates: []experiment.FlowConfig{{
				Spec: packet.FlowSpec{
					PeakRate:   units.MbitsPerSecond(16),
					TokenRate:  units.MbitsPerSecond(2),
					BucketSize: units.KiloBytes(30),
				},
				AvgRate:   units.MbitsPerSecond(2),
				MeanBurst: units.KiloBytes(30),
			}},
			ArrivalRate: 3,
			MeanHold:    6,
			MaxFlows:    32,
			Buffer:      units.MegaBytes(2),
			Duration:    30,
			Warmup:      3,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		blocking, loss, util = res.BlockingProbability, res.ConformantLoss, res.Utilization
	}
	b.ReportMetric(blocking, "blocking")
	b.ReportMetric(loss, "conf-loss")
	b.ReportMetric(util, "util")
}
