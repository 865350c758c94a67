package experiment

import (
	"context"
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/metrics"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// ChurnConfig describes a dynamic-population experiment: flow requests
// arrive as a Poisson process, pass admission control (the §2.3 FIFO+BM
// region), hold for an exponential time, and depart — the operational
// regime the paper's §4 alludes to ("as flows come and go"). Each
// admitted flow's threshold is its Prop. 2 minimum σᵢ + ρᵢ·B/R, which
// depends only on its own spec, so a population change sets the
// joining flow's threshold and leaves every other one as it was.
type ChurnConfig struct {
	// Template flows: each arrival draws one uniformly.
	Templates []FlowConfig
	// ArrivalRate is the request rate (flows/second).
	ArrivalRate float64
	// MeanHold is the mean flow lifetime (seconds).
	MeanHold float64
	// MaxFlows bounds concurrently active flows (slot pool size).
	MaxFlows int
	LinkRate units.Rate
	Buffer   units.Bytes
	Duration float64
	Warmup   float64
	Seed     int64
	// PacketSize defaults to DefaultPacketSize.
	PacketSize units.Bytes
	// Metrics, when non-nil, receives the kernel, buffer, and scheduler
	// metrics of the run (see Options.Metrics).
	Metrics *metrics.Registry
}

// ChurnResult summarizes a churn run.
type ChurnResult struct {
	// Requests, Admitted, Blocked count flow-level admission outcomes;
	// BlockedBandwidth/BlockedBuffer split the rejections by cause.
	Requests         int
	Admitted         int
	Blocked          int
	BlockedBandwidth int
	BlockedBuffer    int
	// BlockingProbability = Blocked / Requests.
	BlockingProbability float64
	// Utilization is delivered rate over link rate (post-warmup).
	Utilization float64
	// ConformantLoss is the byte loss ratio across all admitted flows
	// (all churn traffic is shaped, so any loss is a guarantee
	// violation).
	ConformantLoss float64
	// MeanActive is the time-average number of active flows.
	MeanActive float64
}

// SweepChurn replicates the churn experiment across arrival rates,
// running the rates × runs grid on a worker pool (workers as in
// Options.Workers: 0 means GOMAXPROCS, 1 sequential). Replication r of
// every rate uses seed base.Seed + r, and results land in pre-assigned
// slots — out[i][r] is rate arrivalRates[i], replication r — so the
// output is identical for any worker count. Cancelling ctx stops the
// sweep; completed cells of the grid stay filled and ctx.Err() is
// returned alongside them.
func SweepChurn(ctx context.Context, base ChurnConfig, arrivalRates []float64, runs, workers int) ([][]ChurnResult, error) {
	if runs <= 0 {
		runs = 1
	}
	out := make([][]ChurnResult, len(arrivalRates))
	for i := range out {
		out[i] = make([]ChurnResult, runs)
	}
	err := ForEachJob(ctx, workers, len(arrivalRates)*runs, base.Metrics, nil, func(j int) error {
		i, r := j/runs, j%runs
		cfg := base
		cfg.ArrivalRate = arrivalRates[i]
		cfg.Seed = base.Seed + int64(r)
		res, err := RunChurn(ctx, cfg)
		if err != nil {
			return fmt.Errorf("churn rate %v run %d: %w", arrivalRates[i], r, err)
		}
		out[i][r] = res
		return nil
	})
	if err != nil {
		return out, err
	}
	return out, nil
}

// RunChurn executes a churn experiment. Cancelling ctx interrupts the
// run, returning ctx.Err().
func RunChurn(ctx context.Context, cfg ChurnConfig) (ChurnResult, error) {
	if len(cfg.Templates) == 0 {
		return ChurnResult{}, fmt.Errorf("experiment: churn needs templates")
	}
	if cfg.ArrivalRate <= 0 || cfg.MeanHold <= 0 || cfg.MaxFlows <= 0 {
		return ChurnResult{}, fmt.Errorf("experiment: churn needs positive arrival rate, hold time, and slot count")
	}
	if cfg.Buffer <= 0 {
		return ChurnResult{}, fmt.Errorf("experiment: churn needs a positive Buffer, got %v", cfg.Buffer)
	}
	if cfg.LinkRate < 0 {
		return ChurnResult{}, fmt.Errorf("experiment: churn needs a positive LinkRate (0 for the default), got %v", cfg.LinkRate)
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = DefaultLinkRate
	}
	if cfg.PacketSize == 0 {
		cfg.PacketSize = DefaultPacketSize
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Duration / 10
	}

	s := sim.New()
	col := stats.NewCollector(cfg.MaxFlows, cfg.Warmup)
	thresholds := make([]units.Bytes, cfg.MaxFlows)
	mgr := buffer.NewFixedThreshold(cfg.Buffer, thresholds)
	link := sched.NewLink(s, cfg.LinkRate, sched.NewFIFO(), mgr, col)
	if cfg.Metrics != nil {
		instrument(cfg.Metrics, s, link, "churn")
	}
	admission := core.NewSerialAdmitter(core.DisciplineFIFO, cfg.LinkRate, cfg.Buffer)

	rng := sim.NewRand(cfg.Seed)
	srcRngSeq := 0

	var res ChurnResult
	active := make([]bool, cfg.MaxFlows) // true while a flow holds the slot
	// shapers holds each slot's latest shaper, kept after its flow
	// leaves: it drains trailing packets under the slot's flow id.
	shapers := make([]*source.Shaper, cfg.MaxFlows)

	// Time-average active count via area accumulation.
	var activeArea float64
	var lastChange float64
	var activeCount int
	accumulate := func() {
		activeArea += float64(activeCount) * (s.Now() - lastChange)
		lastChange = s.Now()
	}

	var arrive func()
	arrive = func() {
		// Schedule the next arrival first (Poisson process).
		s.After(sim.Exponential(rng, 1/cfg.ArrivalRate), arrive)

		tpl := cfg.Templates[rng.Intn(len(cfg.Templates))]
		res.Requests++
		slot := freeSlot(active, shapers, mgr)
		verdict := core.BufferLimited // treat slot exhaustion as buffer pressure
		if slot >= 0 {
			verdict = admission.Admit(tpl.Spec)
		}
		switch verdict {
		case core.Accepted:
		case core.BandwidthLimited:
			res.Blocked++
			res.BlockedBandwidth++
			return
		default:
			res.Blocked++
			res.BlockedBuffer++
			return
		}
		res.Admitted++
		spec := tpl.Spec
		accumulate()
		active[slot] = true
		activeCount++
		// The slot's threshold is the Prop. 2 minimum σᵢ + ρᵢ·B/R (no
		// scale-up under churn). A departed slot keeps its threshold
		// until it is reused here: its shaper may still be draining
		// trailing packets, which must not be punished retroactively.
		mgr.SetThreshold(slot, core.LeakyBucketThreshold(spec, cfg.LinkRate, cfg.Buffer))

		srcRngSeq++
		srcRng := sim.NewRand(sim.DeriveSeed(cfg.Seed, srcRngSeq))
		// All churn traffic is shaped (conformant): the experiment
		// measures whether guarantees survive population changes.
		shapers[slot] = source.NewShaper(s, spec, link)
		src := source.NewOnOff(s, srcRng, source.OnOffConfig{
			Flow:       slot,
			PacketSize: cfg.PacketSize,
			PeakRate:   spec.PeakRate,
			AvgRate:    tpl.AvgRate,
			MeanBurst:  tpl.MeanBurst,
		}, shapers[slot])
		src.Start()

		// Departure after an exponential holding time.
		s.After(sim.Exponential(rng, cfg.MeanHold), func() {
			src.Stop()
			admission.Release(spec)
			accumulate()
			active[slot] = false
			activeCount--
		})
	}
	s.After(sim.Exponential(rng, 1/cfg.ArrivalRate), arrive)
	if err := RunUntilCtx(ctx, s, cfg.Duration); err != nil {
		return ChurnResult{}, err
	}
	accumulate()

	res.Utilization = col.AggregateThroughput(cfg.Duration).BitsPerSecond() / cfg.LinkRate.BitsPerSecond()
	res.ConformantLoss = col.ConformantLossRatio()
	if res.Requests > 0 {
		res.BlockingProbability = float64(res.Blocked) / float64(res.Requests)
	}
	res.MeanActive = activeArea / cfg.Duration
	return res, nil
}

// freeSlot returns the first slot a new churn flow may take, or -1. A
// slot is reusable only once the previous occupant's packets have fully
// drained — from the link's buffer and from its shaper, which keeps
// releasing its backlog under the slot's flow id after the source stops
// — so flows never inherit phantom occupancy (or each other's
// statistics).
func freeSlot(active []bool, shapers []*source.Shaper, mgr buffer.Manager) int {
	for i, busy := range active {
		if !busy && mgr.Occupancy(i) == 0 && (shapers[i] == nil || shapers[i].Backlog() == 0) {
			return i
		}
	}
	return -1
}
