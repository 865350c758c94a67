package experiment

import (
	"fmt"
	"math"

	"bufqos/internal/metrics"
	"bufqos/internal/units"
)

// Options is the single configuration surface of the experiment
// package: it describes one simulation run (flows, scheme, buffer,
// duration, seed) and how sweeps over such runs execute (replications,
// swept axes, worker count) and are observed (metrics registry,
// run-done callback).
//
// Build an Options with NewOptions and functional options:
//
//	o := experiment.NewOptions(
//		experiment.WithFlows(experiment.Table1Flows()),
//		experiment.WithSchemeSpec("fifo+threshold"),
//		experiment.WithBuffer(units.MegaBytes(1)),
//		experiment.WithWarmup(0), // explicit zero, no hack needed
//	)
//	res, err := experiment.Run(ctx, o)
//
// Fields may also be set directly on the struct; unset fields get the
// paper's defaults. The one thing struct literals cannot express is an
// intentional zero Warmup or Seed — use WithWarmup(0)/WithSeed(0) for
// that.
type Options struct {
	// --- One run's physics ---

	Flows []FlowConfig
	// SchemeSpec selects the resource-management scheme through the
	// scheme registry (e.g. "fifo+threshold", "wfq+sharing",
	// "hybrid:3+sharing", "fifo+red?min=0.2"); see internal/scheme for
	// the grammar and catalogue.
	SchemeSpec string
	LinkRate   units.Rate
	Buffer     units.Bytes
	// Headroom is H for the sharing schemes (the paper's default in
	// §3.3 is 2 MB; buffer sweeps default it, single runs default 0).
	Headroom units.Bytes
	// QueueOf maps flows to queues for the hybrid schemes.
	QueueOf []int
	// Duration is the simulated time; Warmup the discarded prefix
	// (default Duration/10; set an explicit zero with WithWarmup(0)).
	Duration float64
	Warmup   float64
	// Seed drives all randomness. Single runs use it directly; sweeps
	// seed replication r with Seed + r. Defaults to 1; set an explicit
	// zero with WithSeed(0).
	Seed int64
	// PacketSize defaults to DefaultPacketSize.
	PacketSize units.Bytes
	// TrackDelays enables per-flow queueing-delay measurement (slower;
	// off by default).
	TrackDelays bool

	// --- Sweep execution ---

	// Runs is the number of independent replications (paper: 5).
	Runs int
	// BufferSizes is the swept total buffer (Figures 1-6, 8-13).
	BufferSizes []units.Bytes
	// Headrooms is the swept headroom for Figure 7.
	Headrooms []units.Bytes
	// Fig7Buffer is the fixed total buffer of the Figure 7 headroom
	// sweep (paper: 1 MB).
	Fig7Buffer units.Bytes
	// Workers bounds how many simulation runs execute concurrently:
	// 0 means GOMAXPROCS, 1 forces sequential execution. Results are
	// identical for any worker count.
	Workers int

	// --- Observability ---

	// Metrics, when non-nil, receives counters/gauges/histograms from
	// every layer the run touches (sim kernel, buffer manager,
	// scheduler, worker pool). Nil disables collection at near-zero
	// cost. One registry may be shared across a whole sweep;
	// deterministic aggregates (counters, histogram buckets, gauge
	// high-waters) are identical for any worker count.
	Metrics *metrics.Registry
	// OnDone, when non-nil, is called after every completed run of a
	// sweep with the run's index in it, possibly from several pool
	// workers at once. Figures.Runs and SweepRuns give the total.
	OnDone func(i int)

	// warmupSet / seedSet mark explicit zeros; only WithWarmup/WithSeed
	// set them.
	warmupSet bool
	seedSet   bool
}

// Option mutates an Options; see NewOptions.
type Option func(*Options)

// NewOptions returns an Options with all the given options applied.
// Defaults for untouched fields are applied by Run and the sweep
// drivers, so the returned value can still be adjusted directly.
func NewOptions(opts ...Option) *Options {
	o := &Options{}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithFlows sets the flow population of single runs.
func WithFlows(flows []FlowConfig) Option { return func(o *Options) { o.Flows = flows } }

// WithSchemeSpec selects the scheme through the registry, e.g.
// "fifo+threshold", "wfq+sharing", "hybrid:3+sharing",
// "fifo+dynthresh?alpha=2". Invalid specs surface as an error from Run.
func WithSchemeSpec(spec string) Option { return func(o *Options) { o.SchemeSpec = spec } }

// WithLinkRate overrides the 48 Mb/s default link.
func WithLinkRate(r units.Rate) Option { return func(o *Options) { o.LinkRate = r } }

// WithBuffer sets the total buffer of single runs.
func WithBuffer(b units.Bytes) Option { return func(o *Options) { o.Buffer = b } }

// WithHeadroom sets H for the sharing schemes.
func WithHeadroom(h units.Bytes) Option { return func(o *Options) { o.Headroom = h } }

// WithQueues assigns flows to hybrid queues.
func WithQueues(queueOf []int) Option { return func(o *Options) { o.QueueOf = queueOf } }

// WithDuration sets the simulated seconds per run.
func WithDuration(d float64) Option { return func(o *Options) { o.Duration = d } }

// WithWarmup sets the discarded warm-up prefix. An explicit zero is
// honored.
func WithWarmup(w float64) Option {
	return func(o *Options) { o.Warmup = w; o.warmupSet = true }
}

// WithSeed sets the base random seed (replication r of a sweep uses
// seed+r). An explicit zero is honored.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed; o.seedSet = true }
}

// WithRuns sets the number of independent replications per point.
func WithRuns(n int) Option { return func(o *Options) { o.Runs = n } }

// WithWorkers bounds concurrent simulation runs (0 = GOMAXPROCS,
// 1 = sequential).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithFig7Buffer fixes the total buffer of the Figure 7 headroom sweep.
func WithFig7Buffer(b units.Bytes) Option { return func(o *Options) { o.Fig7Buffer = b } }

// WithMetrics attaches a metrics registry; nil disables collection.
func WithMetrics(r *metrics.Registry) Option { return func(o *Options) { o.Metrics = r } }

// defaults fills unset fields with the paper's setup. It mutates the
// receiver, so callers work on a copy of caller-owned Options.
func (o *Options) defaults() {
	if o.LinkRate == 0 {
		o.LinkRate = DefaultLinkRate
	}
	if o.PacketSize == 0 {
		o.PacketSize = DefaultPacketSize
	}
	if o.Duration == 0 {
		o.Duration = 20
	}
	if o.Warmup == 0 && !o.warmupSet {
		o.Warmup = o.Duration / 10
	}
	if o.Seed == 0 && !o.seedSet {
		o.Seed = 1
	}
	if o.Runs == 0 {
		o.Runs = 5
	}
	if len(o.BufferSizes) == 0 {
		for kb := 500; kb <= 5000; kb += 500 {
			o.BufferSizes = append(o.BufferSizes, units.KiloBytes(float64(kb)))
		}
	}
	if len(o.Headrooms) == 0 {
		for kb := 0; kb <= 1000; kb += 100 {
			o.Headrooms = append(o.Headrooms, units.KiloBytes(float64(kb)))
		}
	}
	if o.Fig7Buffer == 0 {
		o.Fig7Buffer = units.MegaBytes(1)
	}
}

// sweepDefaults is defaults plus the sweep-specific headroom default
// (2 MB, the §3.3 operating point). Single runs keep Headroom zero so
// threshold schemes are unaffected.
func (o *Options) sweepDefaults() {
	o.defaults()
	if o.Headroom == 0 {
		o.Headroom = units.MegaBytes(2)
	}
}

// ValidDuration reports whether d is a horizon a run can reach: positive
// and finite. A NaN or infinite horizon would run a self-re-arming
// source forever.
func ValidDuration(d float64) bool { return d > 0 && !math.IsInf(d, 1) }

// validateSweep rejects defaulted sweep options no simulation can
// honour, naming the offending setting, so a bad flag is an error at the
// start of a sweep rather than a panic or an all-zero figure inside it.
func (o *Options) validateSweep() error {
	switch {
	case o.Runs < 0:
		return fmt.Errorf("experiment: runs %d is negative", o.Runs)
	case !ValidDuration(o.Duration):
		return fmt.Errorf("experiment: duration %v is not positive and finite", o.Duration)
	case !(o.Warmup >= 0 && o.Warmup < o.Duration):
		return fmt.Errorf("experiment: warmup %v is outside [0, duration %v)", o.Warmup, o.Duration)
	case o.Headroom < 0:
		return fmt.Errorf("experiment: headroom %v is negative", o.Headroom)
	}
	for i, b := range o.BufferSizes {
		if b <= 0 {
			return fmt.Errorf("experiment: buffers[%d] = %v is not positive", i, b)
		}
	}
	for i, h := range o.Headrooms {
		if h < 0 {
			return fmt.Errorf("experiment: headrooms[%d] = %v is negative", i, h)
		}
	}
	return nil
}
