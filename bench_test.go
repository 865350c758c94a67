// Root benchmarks: the few end-to-end go-test timings nothing else
// takes. Traffic generation for the paper's Table 1, one Figure 1 sweep
// run sequentially and on the worker pool, and a full Table 1
// simulation with and without a metrics registry. The repository's
// performance record is `go run ./bench` (BENCHMARK.json); the paper's
// figures are regenerated and checked by `make figs-smoke` and
// `qcheck`; per-layer costs are bench's probes and the package
// benchmarks next to the code they time.
package bufqos_test

import (
	"context"
	"testing"

	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// BenchmarkTable1Workload measures generation of the Table 1 traffic
// mix and reports the realized offered load (paper: "a little over
// 100%" of the link).
func BenchmarkTable1Workload(b *testing.B) {
	flows := experiment.Table1Flows()
	var offered float64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		var total units.Bytes
		sink := source.SinkFunc(func(p *packet.Packet) { total += p.Size })
		for fi, f := range flows {
			src := source.NewOnOff(s, sim.NewRand(sim.DeriveSeed(1, fi)), source.OnOffConfig{
				Flow: fi, PacketSize: experiment.DefaultPacketSize,
				PeakRate: f.Spec.PeakRate, AvgRate: f.AvgRate, MeanBurst: f.MeanBurst,
			}, sink)
			src.Start()
		}
		const dur = 5.0
		s.RunUntil(dur)
		offered = total.Bits() / dur / experiment.DefaultLinkRate.BitsPerSecond()
	}
	b.ReportMetric(offered, "offered-load")
}

// figure1Opts is a reduced-scale Figure 1 sweep: two replications of
// 4 s at three buffer sizes.
func figure1Opts(workers int) *experiment.Options {
	o := &experiment.Options{
		Runs:        2,
		Duration:    4,
		BufferSizes: []units.Bytes{units.KiloBytes(500), units.MegaBytes(1), units.MegaBytes(3)},
		Headrooms:   []units.Bytes{0, units.KiloBytes(250), units.KiloBytes(500)},
		Headroom:    units.KiloBytes(500),
		Workers:     workers,
	}
	experiment.WithWarmup(0.5)(o)
	experiment.WithSeed(1)(o)
	return o
}

// runFigure1 regenerates Figure 1 per iteration, each from a fresh
// figure set so every iteration simulates the figure's runs.
func runFigure1(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		figs, err := experiment.NewFigures(figure1Opts(workers))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := figs.Figure(context.Background(), "fig1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Sequential and BenchmarkFigure1Parallel run the same
// Figure 1 sweep with Workers=1 and Workers=GOMAXPROCS; the ns/op ratio
// is the wall-clock speedup of the worker pool (the outputs themselves
// are identical — TestParallelRunLinesMatchesSequential asserts so).
func BenchmarkFigure1Sequential(b *testing.B) { runFigure1(b, 1) }

func BenchmarkFigure1Parallel(b *testing.B) { runFigure1(b, 0) }

// endToEnd runs the full Table 1 workload on fifo+threshold at 1 MB for
// 2 s per iteration, with a live metrics registry when reg is non-nil.
func endToEnd(b *testing.B, reg *metrics.Registry) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, err := experiment.Run(context.Background(), experiment.NewOptions(
			experiment.WithFlows(experiment.Table1Flows()),
			experiment.WithSchemeSpec("fifo+threshold"),
			experiment.WithBuffer(units.MegaBytes(1)),
			experiment.WithDuration(2),
			experiment.WithWarmup(0.2),
			experiment.WithSeed(int64(i+1)),
			experiment.WithMetrics(reg),
		))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSimulation measures simulator throughput on the full
// Table 1 workload (packets simulated per wall-second is the inverse of
// ns/op divided by the packet count). It is the nil-registry fast path
// that instrumentation budgets are priced against.
func BenchmarkEndToEndSimulation(b *testing.B) { endToEnd(b, nil) }

// BenchmarkEndToEndSimulationMetrics is the same run with a live metrics
// registry attached; its ns/op against BenchmarkEndToEndSimulation's
// prices the enabled instrumentation.
func BenchmarkEndToEndSimulationMetrics(b *testing.B) { endToEnd(b, metrics.NewRegistry()) }
