package sizing

import (
	"context"
	"fmt"

	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/network"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Sweep runs every cell of cfg and returns the report. Cells are
// independent simulations fanned over the experiment pool; each writes
// its pre-assigned Report slot, so the result is bit-identical at any
// Workers count. A cancelled ctx aborts unstarted cells, interrupts
// running ones between chunks of simulated time, and returns the
// context error.
func Sweep(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Duration != 0 && !experiment.ValidDuration(cfg.Duration) {
		return nil, fmt.Errorf("sizing: duration %v is not positive and finite", cfg.Duration)
	}
	if w := cfg.Warmup; w != 0 && !(w > 0 && w < cfg.duration()) {
		return nil, fmt.Errorf("sizing: warmup %v is outside [0, duration %v)", w, cfg.duration())
	}
	cells := cfg.cells()
	rep := &Report{
		LinkRateMbps: cfg.linkRate().Mbits(),
		RTT:          cfg.rtt(),
		SegmentSize:  cfg.segmentSize(),
		Duration:     cfg.duration(),
		Warmup:       cfg.warmup(),
		Seed:         cfg.seed(),
		Cells:        make([]Cell, len(cells)),
	}
	err := experiment.ForEachJob(ctx, cfg.Workers, len(cells), nil, nil, func(i int) error {
		cell, err := runCell(ctx, &cfg, cells[i], sim.DeriveSeed(cfg.seed(), i))
		if err != nil {
			return fmt.Errorf("sizing: cell %d (n=%d %s %s): %w",
				i, cells[i].Flows, cells[i].Rule.Name, cells[i].Scheme, err)
		}
		rep.Cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runCell simulates one (n, rule, scheme) bottleneck and measures it.
func runCell(ctx context.Context, cfg *Config, spec CellSpec, seed int64) (Cell, error) {
	if spec.Flows <= 0 {
		return Cell{}, fmt.Errorf("non-positive flow count %d", spec.Flows)
	}
	n := spec.Flows
	c := cfg.linkRate()
	rtt := cfg.rtt()
	segment := cfg.segmentSize()
	warmup := cfg.warmup()
	duration := cfg.duration()
	buffer := spec.Rule.Resolve(c, rtt, n, segment)

	// The declared contract of every flow: ρ an even 95% share of the
	// link (so the population is schedulable and equation 9 is finite),
	// σ two segments, peak capped well above ρ. Threshold-based managers
	// partition the buffer from exactly these profiles.
	rho := units.Rate(0.95 * c.BitsPerSecond() / float64(n))
	peak := units.Rate(20 * rho.BitsPerSecond())
	if peak > c {
		peak = c
	}
	specs := make([]packet.FlowSpec, n)
	for i := range specs {
		specs[i] = packet.FlowSpec{PeakRate: peak, TokenRate: rho, BucketSize: 2 * segment}
	}
	required, err := core.RequiredBufferFIFO(specs, c)
	if err != nil {
		return Cell{}, err
	}

	sc, err := scheme.Parse(spec.Scheme)
	if err != nil {
		return Cell{}, err
	}
	// Pending at once: a timer per flow and the packets on the
	// propagation paths, at most a window of the longest RTTs (1.5·RTT,
	// below) in flight. Reserving them up front spares the kernel's
	// arena its growth copies.
	s := sim.New()
	s.Reserve(n + int(1.5*c.BytesPerSecond()*rtt/float64(segment)))
	col := stats.NewCollector(n, warmup)
	link, err := sc.NewLink(s, scheme.Config{
		Specs:      specs,
		LinkRate:   c,
		Buffer:     buffer,
		PacketSize: segment,
		Seed:       seed,
	}, col)
	if err != nil {
		return Cell{}, err
	}
	delivery := network.NewDeliveryLight(s, n)
	qdelay := stats.NewDelayTracker(0)

	// Per-flow propagation: half the flow's RTT after the bottleneck,
	// the other half on the ACK path. RTTs are spread uniformly over
	// [0.5, 1.5]·RTT (mean RTT, the value the rules size against) — with
	// one shared RTT the closed-loop population phase-locks and drop-tail
	// starves late starters outright, a synchronization artifact the
	// buffer-sizing literature removes the same way.
	rng := sim.NewRand(seed)
	props := make([]float64, n)
	for i := range props {
		props[i] = (rtt / 2) * (0.5 + rng.Float64())
	}
	deliver := delivery.Receive
	link.OnDepart = func(p *packet.Packet) {
		if now := s.Now(); now >= warmup {
			qdelay.Add(now - p.Arrived)
		}
		s.AfterPacket(props[p.Flow], deliver, p)
	}
	// Open-loop population: on-off sources matching the declared
	// (σ,ρ,peak) profiles in the paper's parameterization. Closed-loop
	// population: NewReno senders paced at link speed.
	kind, rate := network.SourceOnOff, rho
	if !spec.Open {
		kind, rate = network.SourceTCP, c
	}
	chains := make([]network.Flow, n)
	for i := range chains {
		chains[i] = network.Flow{
			Sim:        s,
			Entry:      link,
			Spec:       specs[i],
			PacketSize: segment,
			Rate:       rate,
			MeanBurst:  2 * segment,
			Source:     kind,
		}
	}
	flows := network.NewFlows(chains, seed)
	if spec.Open {
		for i := range chains {
			flows.Start(i).Fire()
		}
	} else {
		// The senders are ACKed from the far end across the reverse
		// propagation delay. Starts are staggered over two RTTs — enough
		// jitter to split the slow-start bursts across event times, short
		// enough that every flow joins the opening contention (a long
		// stagger lets the first starter pin the queue full and lock
		// everyone out).
		feedback := flows.Feedback
		link.OnDrop = feedback
		sendAck := func(ap *packet.Packet) { s.AfterPacket(props[ap.Flow], feedback, ap) }
		spread := 2 * rtt
		for i := range chains {
			delivery.SetAcker(i, network.TCPAckSize, sendAck)
			s.AtHandler(rng.Float64()*spread, flows.Start(i))
		}
	}

	if err := experiment.RunUntilCtx(ctx, s, duration); err != nil {
		return Cell{}, err
	}

	cell := Cell{
		Flows:          n,
		Rule:           spec.Rule.Name,
		Scheme:         sc.Spec(),
		Open:           spec.Open,
		Buffer:         buffer,
		BufferPkts:     float64(buffer) / float64(segment),
		RequiredBuffer: required,
		Bound:          buffer >= required,
		Utilization:    col.AggregateThroughput(duration).BitsPerSecond() / c.BitsPerSecond(),
		Loss:           col.LossRatio(),
		MeanDelayMs:    1e3 * qdelay.Mean(),
		MaxDelayMs:     1e3 * qdelay.Max(),
		Events:         s.Steps(),
	}
	if qdelay.Count() > 0 { // Quantile is NaN on an empty tracker
		cell.P99DelayMs = 1e3 * qdelay.Quantile(0.99)
	}
	goodput := make([]float64, n)
	if spec.Open {
		for i := 0; i < n; i++ {
			goodput[i] = float64(col.Flow(i).Departed.Total().Bytes)
		}
	} else {
		for i := 0; i < n; i++ {
			tcp := flows.TCP(i)
			goodput[i] = float64(delivery.Goodput(i).Bytes)
			cell.Retransmits += tcp.Retransmits()
			cell.Timeouts += tcp.Timeouts()
		}
	}
	cell.Fairness = jain(goodput)
	return cell, nil
}
