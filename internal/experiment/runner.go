package experiment

import (
	"context"
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/metrics"
	"bufqos/internal/network"
	"bufqos/internal/sched"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Result holds the measurements of one run.
type Result struct {
	// AggThroughput is the delivered rate across all flows.
	AggThroughput units.Rate
	// Utilization is AggThroughput / LinkRate.
	Utilization float64
	// FlowThroughput is the delivered rate per flow.
	FlowThroughput []units.Rate
	// ConformantLoss is the byte-loss ratio of the regulated flows
	// (Figures 2, 5, 7, 9, 12).
	ConformantLoss float64
	// FlowLoss is the per-flow byte-loss ratio.
	FlowLoss []float64
	// OfferedRate is the measured offered load (arrival rate at the
	// multiplexer) per flow.
	OfferedRate []units.Rate
	// MaxDelay and MeanDelay summarize multiplexer queueing delay in
	// seconds across all flows (zero unless Options.TrackDelays).
	MaxDelay  float64
	MeanDelay float64
	// FlowMaxDelay is the per-flow worst queueing delay (nil unless
	// Options.TrackDelays).
	FlowMaxDelay []float64
}

// runEventBuckets are the histogram bounds for events-per-run: runs
// range from a few thousand events (short unit-test configs) to tens of
// millions (long sweeps), so exponential buckets from 1k up cover the
// span in factor-of-2 resolution.
var runEventBuckets = metrics.ExpBuckets(1024, 2, 16)

// RunUntilCtx advances the simulation to duration, checking ctx between
// chunks of simulated time so a cancelled context interrupts a run
// mid-flight. The chunk boundaries are exact fractions of duration and
// every event at or before duration fires exactly as in an unchunked
// RunUntil, so results are bit-identical with and without a cancellable
// context. Returns ctx.Err() when interrupted.
func RunUntilCtx(ctx context.Context, s *sim.Simulator, duration float64) error {
	if ctx == nil || ctx.Done() == nil {
		s.RunUntil(duration)
		return nil
	}
	const chunks = 64
	for i := 1; i <= chunks; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.RunUntil(duration * float64(i) / chunks)
	}
	return ctx.Err()
}

// instrument publishes the kernel, buffer-manager and link metrics of
// one data plane into reg; label names the link's scheme.
func instrument(reg *metrics.Registry, s *sim.Simulator, link *sched.Link, label string) {
	s.Instrument(reg)
	if in, ok := link.Manager().(buffer.Instrumentable); ok {
		in.Instrument(reg, "buffer")
	}
	link.Instrument(reg, label)
}

// Plane is one constructed single-link run: the Options' scheme built
// on a fresh simulator, instrumented when Options.Metrics is set, with
// every flow's on-off source (behind its shaper or meter) started.
// Nothing has run yet. Run drives it to the horizon; a caller that
// wants to watch the run attaches samplers to Sim, drives Sim itself
// and reads Result.
type Plane struct {
	Sim  *sim.Simulator
	Link *sched.Link

	cfg Options // defaults applied
	col *stats.Collector
}

// NewPlane constructs the data plane o describes. o is read-only and
// may be shared across concurrent calls.
func NewPlane(o *Options) (*Plane, error) {
	cfg := *o
	cfg.defaults()
	if len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("experiment: no flows")
	}
	if !ValidDuration(cfg.Duration) {
		return nil, fmt.Errorf("experiment: duration %v is not positive and finite", cfg.Duration)
	}
	// Pending at once: at most a source timer and a shaper timer per
	// flow, and the link's departure where it is an event (a FIFO
	// link computes its departures and queues none). Reserving them up
	// front spares the kernel's arena its growth copies.
	s := sim.New()
	s.Reserve(2*len(cfg.Flows) + 1)
	col := stats.NewCollector(len(cfg.Flows), cfg.Warmup)
	if cfg.TrackDelays {
		// Histogram ceiling: a full buffer draining at the link rate.
		col.EnableDelays(2 * float64(cfg.Buffer) * 8 / cfg.LinkRate.BitsPerSecond())
	}
	sc, err := scheme.Parse(cfg.SchemeSpec)
	if err != nil {
		return nil, err
	}
	link, err := sc.NewLink(s, cfg.schemeConfig(), col)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		instrument(cfg.Metrics, s, link, sc.String())
	}
	// Every flow is an on-off source behind its shaper (regulated
	// flows) or its meter.
	chains := make([]network.Flow, len(cfg.Flows))
	for i, f := range cfg.Flows {
		chains[i] = network.Flow{
			Sim:        s,
			Entry:      link,
			Spec:       f.Spec,
			PacketSize: cfg.PacketSize,
			Rate:       f.AvgRate,
			MeanBurst:  f.MeanBurst,
			Source:     network.SourceOnOff,
			Regulator:  network.RegulatorMeter,
		}
		if f.PacketSize > 0 {
			chains[i].PacketSize = f.PacketSize
		}
		if f.Regulated() {
			chains[i].Regulator = network.RegulatorShaper
		}
	}
	flows := network.NewFlows(chains, cfg.Seed)
	for i := range chains {
		flows.Start(i).Fire()
	}
	return &Plane{Sim: s, Link: link, cfg: cfg, col: col}, nil
}

// Run executes one simulation and returns its measurements. The context
// cancels a run mid-flight (Run then returns ctx.Err()); o is read-only
// and may be shared across concurrent Runs. When o.Metrics is set, the
// kernel, buffer manager, and scheduler publish counters into it.
func Run(ctx context.Context, o *Options) (Result, error) {
	p, err := NewPlane(o)
	if err != nil {
		return Result{}, err
	}
	cfg, s := &p.cfg, p.Sim
	runErr := RunUntilCtx(ctx, s, cfg.Duration)
	if cfg.Metrics != nil {
		cfg.Metrics.Histogram("experiment.run_events", runEventBuckets).Observe(float64(s.Steps()))
	}
	if runErr != nil {
		return Result{}, runErr
	}
	return p.Result(), nil
}

// Result measures the plane over [Warmup, Duration]; call it once Sim
// has reached Options.Duration.
func (p *Plane) Result() Result {
	cfg, col, n := &p.cfg, p.col, len(p.cfg.Flows)
	res := Result{
		AggThroughput:  col.AggregateThroughput(cfg.Duration),
		FlowThroughput: make([]units.Rate, n),
		FlowLoss:       make([]float64, n),
		OfferedRate:    make([]units.Rate, n),
		ConformantLoss: col.ConformantLossRatio(ConformantIDs(cfg.Flows)...),
	}
	res.Utilization = res.AggThroughput.BitsPerSecond() / cfg.LinkRate.BitsPerSecond()
	meas := cfg.Duration - cfg.Warmup
	for i := 0; i < n; i++ {
		res.FlowThroughput[i] = col.FlowThroughput(i, cfg.Duration)
		res.FlowLoss[i] = col.LossRatio(i)
		res.OfferedRate[i] = units.Rate(col.Flow(i).Offered.Total().Bytes.Bits() / meas)
	}
	if cfg.TrackDelays {
		res.MaxDelay = col.MaxDelay()
		res.FlowMaxDelay = make([]float64, n)
		var sum float64
		var count int64
		for i := 0; i < n; i++ {
			d := col.Delays(i)
			res.FlowMaxDelay[i] = d.Max()
			sum += d.Mean() * float64(d.Count())
			count += d.Count()
		}
		if count > 0 {
			res.MeanDelay = sum / float64(count)
		}
	}
	return res
}

// schemeConfig assembles the scheme.Config describing this run's link:
// the declared flow profiles, the link physics, and the adaptivity
// flags (aggressive flows do not respond to loss, so adaptive-sharing
// restricts their borrowing).
func (o *Options) schemeConfig() scheme.Config {
	adaptive := make([]bool, len(o.Flows))
	for i, f := range o.Flows {
		adaptive[i] = f.Conformance != Aggressive
	}
	return scheme.Config{
		Specs:      Specs(o.Flows),
		LinkRate:   o.LinkRate,
		Buffer:     o.Buffer,
		Headroom:   o.Headroom,
		QueueOf:    o.QueueOf,
		Adaptive:   adaptive,
		PacketSize: o.PacketSize,
		Seed:       o.Seed,
	}
}
