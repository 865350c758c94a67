package experiment

import (
	"context"
	"testing"

	"bufqos/internal/metrics"
	"bufqos/internal/trace"
)

// TestPlaneDrivenByHandMatchesRun pins the seam qtrace stands on: a
// Plane whose simulator the caller drives itself measures exactly what
// Run measures, and watching it — a metrics registry, an occupancy
// sampler and a metrics sampler on the same kernel — changes nothing.
func TestPlaneDrivenByHandMatchesRun(t *testing.T) {
	for _, spec := range []string{"fifo+threshold", "wfq+sharing", "fifo+red"} {
		o := legacyGoldenOptions(spec)
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want := toGolden(res)

		p, err := NewPlane(o)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		p.Sim.RunUntil(o.Duration)
		compareGolden(t, spec+" by hand", want, toGolden(p.Result()))

		watched := *o
		watched.Metrics = metrics.NewRegistry()
		p, err = NewPlane(&watched)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		mgr := p.Link.Manager()
		occupancy := trace.NewSampler(p.Sim, 0.005, []string{"q0"}, func() []float64 {
			return []float64{float64(mgr.Occupancy(0))}
		})
		occupancy.Start()
		counters := trace.NewMetricsSampler(p.Sim, 0.005, watched.Metrics, watched.Metrics.Names())
		counters.Start()
		p.Sim.RunUntil(o.Duration)
		compareGolden(t, spec+" watched", want, toGolden(p.Result()))
		if occupancy.Len() == 0 || counters.Len() == 0 {
			t.Errorf("%s: samplers recorded %d and %d rows", spec, occupancy.Len(), counters.Len())
		}
	}
}
