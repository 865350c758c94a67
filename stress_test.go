package bufqos_test

import (
	"context"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Long-horizon stress tests, skipped under -short. They catch slow
// drift (accounting leaks, virtual-time float growth, occupancy
// desync) that short unit tests cannot.

func TestStressHundredFlowsLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// 100 flows on a 480 Mb/s link for 60 simulated seconds under the
	// threshold scheme; invariants checked throughout via manager
	// accounting and final conservation.
	const nflows = 100
	linkRate := units.Rate(480e6)
	bufSize := units.MegaBytes(4)

	var flows []experiment.FlowConfig
	for i := 0; i < nflows; i++ {
		tok := 0.5 + float64(i%8)*0.5 // 0.5..4 Mb/s
		conf := experiment.Conformant
		avg := tok
		burst := 20.0
		if i%5 == 4 {
			conf = experiment.Aggressive
			avg = tok * 4
			burst = 100
		}
		flows = append(flows, experiment.FlowConfig{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(16),
				TokenRate:  units.MbitsPerSecond(tok),
				BucketSize: units.KiloBytes(20),
			},
			AvgRate:     units.MbitsPerSecond(avg),
			MeanBurst:   units.KiloBytes(burst),
			Conformance: conf,
		})
	}
	res, err := experiment.Run(context.Background(), experiment.NewOptions(
		experiment.WithFlows(flows),
		experiment.WithSchemeSpec("fifo+threshold"),
		experiment.WithLinkRate(linkRate),
		experiment.WithBuffer(bufSize),
		experiment.WithDuration(60),
		experiment.WithWarmup(5),
		experiment.WithSeed(1),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0.5 || res.Utilization > 1.001 {
		t.Errorf("utilization %v out of range", res.Utilization)
	}
	if res.ConformantLoss > 0.001 {
		t.Errorf("conformant loss %v at amply provisioned 100-flow scale", res.ConformantLoss)
	}
	// Every conformant flow individually delivers what it offered
	// (zero loss): the per-flow rate guarantee. The offered rate itself
	// fluctuates with the ON-OFF realization, so compare against the
	// measured offer, not the nominal reservation.
	for i, f := range flows {
		if f.Conformance != experiment.Conformant {
			continue
		}
		got := res.FlowThroughput[i].BitsPerSecond()
		offered := res.OfferedRate[i].BitsPerSecond()
		if got < offered*0.97 {
			t.Errorf("flow %d delivered %.3g of offered %.3g", i, got, offered)
		}
	}
}

func TestStressWFQVirtualTimeLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// 200 simulated seconds of bursty on/off traffic through WFQ: the
	// idle-rebase must keep virtual time bounded and occupancy exact.
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	weights := make([]units.Rate, 20)
	for i := range weights {
		weights[i] = units.MbitsPerSecond(1 + float64(i%4))
	}
	w := sched.NewWFQ(rate, s.Now, weights)
	mgr := buffer.NewTailDrop(units.MegaBytes(1), len(weights))
	col := stats.NewCollector(len(weights), 0)
	link := sched.NewLink(s, rate, w, mgr, col)
	for i := range weights {
		src := source.NewOnOff(s, sim.NewRand(int64(i+1)), source.OnOffConfig{
			Flow: i, PacketSize: 500,
			PeakRate:  units.MbitsPerSecond(16),
			AvgRate:   units.MbitsPerSecond(1.5),
			MeanBurst: units.KiloBytes(40),
		}, link)
		src.Start()
	}
	s.RunUntil(200)
	// Occupancy accounting must balance to the queued backlog plus the
	// packet in service.
	diff := mgr.Total() - w.Backlog()
	if diff != 0 && diff != 500 {
		t.Errorf("occupancy %v vs scheduler backlog %v (diff %v, want 0 or one packet)",
			mgr.Total(), w.Backlog(), diff)
	}
	// Virtual time stays finite and sane (rebased on idle periods).
	if v := w.VirtualTime(); v < 0 || v > 1e9 {
		t.Errorf("virtual time %v unbounded", v)
	}
	// Conservation per flow.
	for i := 0; i < len(weights); i++ {
		f := col.Flow(i)
		inFlight := f.Offered.Total().Packets - f.Departed.Total().Packets - f.Dropped.Total().Packets
		if inFlight < 0 || inFlight > int64(w.FlowBacklog(i))+1 {
			t.Errorf("flow %d conservation: %d unaccounted packets", i, inFlight)
		}
	}
}

func TestStressSharingInvariantLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// The sharing pools must conserve space over millions of operations
	// driven by the real simulator (not just the quick-check harness).
	flows := experiment.Table1Flows()
	specs := experiment.Specs(flows)
	th, err := core.Thresholds(specs, experiment.DefaultLinkRate, units.MegaBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	mgr := buffer.NewSharing(units.MegaBytes(1), th, units.KiloBytes(300))
	s := sim.New()
	link := sched.NewLink(s, experiment.DefaultLinkRate, sched.NewFIFO(), mgr, nil)
	for i, f := range flows {
		var sink source.Sink = link
		if f.Regulated() {
			sink = source.NewShaper(s, f.Spec, link)
		}
		src := source.NewOnOff(s, sim.NewRand(int64(i+7)), source.OnOffConfig{
			Flow: i, PacketSize: 500,
			PeakRate: f.Spec.PeakRate, AvgRate: f.AvgRate, MeanBurst: f.MeanBurst,
		}, sink)
		src.Start()
	}
	// Check the conservation invariant at 1000 checkpoints.
	for i := 1; i <= 1000; i++ {
		s.RunUntil(float64(i) * 0.1)
		free := mgr.Holes() + mgr.Headroom()
		if free+mgr.Total() != mgr.Capacity() {
			t.Fatalf("space leak at t=%v: holes+headroom=%v occupied=%v capacity=%v",
				s.Now(), free, mgr.Total(), mgr.Capacity())
		}
	}
}
