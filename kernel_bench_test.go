package bufqos_test

import (
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/fluid"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// Micro-benchmarks of the substrate, for profiling the simulator
// itself (the figure benchmarks measure the science; these measure the
// machine).

// BenchmarkSimKernel measures raw event scheduling + dispatch. The
// arena-backed kernel must report 0 allocs/op here: the event payload
// is recycled through the free-list, not heap-allocated per call.
func BenchmarkSimKernel(b *testing.B) {
	s := sim.New()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			s.After(1e-6, next)
		}
	}
	s.After(0, next)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(uint64(b.N) + 10)
}

// BenchmarkSimKernelCancel measures the cancel/reschedule churn pattern
// (what shapers and churn experiments do per packet): also 0 allocs/op,
// and the eager heap removal keeps the queue from accumulating corpses.
func BenchmarkSimKernelCancel(b *testing.B) {
	s := sim.New()
	fn := func() {}
	e := s.At(1e18, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel()
		e = s.At(1e18, fn)
	}
	if s.Pending() != 1 {
		b.Fatalf("eager cancel left %d events queued, want 1", s.Pending())
	}
}

// BenchmarkSimKernelDeepQueue measures heap behaviour with many pending
// events.
func BenchmarkSimKernelDeepQueue(b *testing.B) {
	s := sim.New()
	for i := 0; i < 10000; i++ {
		s.At(1e6+float64(i), func() {})
	}
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			s.After(1e-6, next)
		}
	}
	s.After(0, next)
	b.ReportAllocs()
	b.ResetTimer()
	for count < b.N && s.Step() {
	}
}

// BenchmarkFluidEngine measures the discretized fluid model.
func BenchmarkFluidEngine(b *testing.B) {
	e := fluid.NewEngine(48e6, []float64{1.33e6, 6.67e6}, 1e-4)
	e.SetGreedy(1)
	rates := func(t float64) []float64 { return []float64{8e6, 0} }
	b.ResetTimer()
	e.Run(b.N, rates)
}

// BenchmarkThresholdComputation measures the admission-time math for
// the full Table 2 workload.
func BenchmarkThresholdComputation(b *testing.B) {
	specs := experiment.Specs(experiment.Table2Flows())
	for i := 0; i < b.N; i++ {
		if _, err := core.Thresholds(specs, experiment.DefaultLinkRate, units.MegaBytes(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupingDP measures the scalable grouping optimizer at 100
// flows.
func BenchmarkGroupingDP(b *testing.B) {
	var specs []packet.FlowSpec
	for i := 0; i < 100; i++ {
		specs = append(specs, packet.FlowSpec{
			TokenRate:  units.MbitsPerSecond(0.3 + float64(i%7)*0.4),
			BucketSize: units.KiloBytes(float64(10 + i%50)),
		})
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeGroupingDP(specs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitDynamicThreshold adds the Choudhury–Hahne baseline to
// the per-packet admission costs of BenchmarkAdmitFixedThreshold and
// BenchmarkAdmitSharing; RED's is bench's buffer.red_admit_release_ns.
func BenchmarkAdmitDynamicThreshold(b *testing.B) {
	m := buffer.NewDynamicThreshold(units.MegaBytes(1), 9, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Admit(i%9, 500) {
			m.Release(i%9, 500)
		}
	}
}
