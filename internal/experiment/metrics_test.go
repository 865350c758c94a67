package experiment

import (
	"context"
	"strings"
	"testing"

	"bufqos/internal/metrics"
	"bufqos/internal/units"
)

// sweepWithRegistry runs the tiny Figure 1 sweep with every run feeding
// one shared registry, and returns that registry.
func sweepWithRegistry(t *testing.T, workers int) *metrics.Registry {
	t.Helper()
	reg := metrics.NewRegistry()
	opts := tinyOpts()
	opts.Workers = workers
	opts.Metrics = reg
	figure(t, opts, "fig1")
	return reg
}

// deterministic reports whether a metric name participates in the
// cross-worker-count determinism contract. Pool metrics depend on how
// jobs land on workers, so they are scheduling-dependent by design.
func deterministic(name string) bool {
	return !strings.HasPrefix(name, "pool.")
}

// TestMetricsDeterministicAcrossWorkers is the registry's aggregation
// contract end to end: a fixed-seed sweep must leave identical counter
// sums, gauge high-water marks, and histogram bucket counts in a shared
// registry whether it ran sequentially or on 8 workers. (Gauge
// instantaneous values are last-writer-wins and histogram float sums
// accumulate in scheduling order, so neither is compared.)
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	seqReg := sweepWithRegistry(t, 1)
	parReg := sweepWithRegistry(t, 8)

	seq, par := seqReg.Snapshot(), parReg.Snapshot()

	// The pool registers one runs_completed counter per worker, so only
	// the deterministic subset of names must match.
	keep := func(names []string) []string {
		var out []string
		for _, n := range names {
			if deterministic(n) {
				out = append(out, n)
			}
		}
		return out
	}
	seqNames, parNames := keep(seqReg.Names()), keep(parReg.Names())
	if len(seqNames) != len(parNames) {
		t.Fatalf("metric name sets differ: %d sequential vs %d parallel", len(seqNames), len(parNames))
	}
	for i, n := range seqNames {
		if parNames[i] != n {
			t.Fatalf("metric name sets differ at %d: %q vs %q", i, n, parNames[i])
		}
	}
	if len(seq.Counters) == 0 {
		t.Fatal("instrumented sweep registered no counters")
	}
	// The packet pool's instruments take part in the contract below:
	// every run has its own kernel and pool, so the created total and
	// the live high-water do not depend on which worker ran what.
	if seq.Counters["sim.packets_created"] == 0 || seq.Gauges["sim.packets_live"].Max == 0 {
		t.Errorf("pool metrics missing: created %d, live high-water %d",
			seq.Counters["sim.packets_created"], seq.Gauges["sim.packets_live"].Max)
	}

	for name, v := range seq.Counters {
		if !deterministic(name) {
			continue
		}
		if pv := par.Counters[name]; pv != v {
			t.Errorf("counter %s: sequential %d, parallel %d", name, v, pv)
		}
	}
	for name, g := range seq.Gauges {
		if !deterministic(name) {
			continue
		}
		if pm := par.Gauges[name].Max; pm != g.Max {
			t.Errorf("gauge %s high-water: sequential %d, parallel %d", name, g.Max, pm)
		}
	}
	for name, h := range seq.Histograms {
		if !deterministic(name) {
			continue
		}
		ph := par.Histograms[name]
		if ph.Count != h.Count {
			t.Errorf("histogram %s count: sequential %d, parallel %d", name, h.Count, ph.Count)
			continue
		}
		for i, c := range h.Counts {
			if ph.Counts[i] != c {
				t.Errorf("histogram %s bucket %d: sequential %d, parallel %d", name, i, c, ph.Counts[i])
			}
		}
	}
}

// TestRunMetricsPopulated checks a single instrumented run touches all
// three layers the issue wires up: the event kernel, the buffer
// manager, and the scheduler/link.
func TestRunMetricsPopulated(t *testing.T) {
	reg := metrics.NewRegistry()
	o := NewOptions(
		WithFlows(Table1Flows()),
		WithSchemeSpec("fifo+threshold"),
		WithBuffer(units.MegaBytes(1)),
		WithDuration(2),
		WithWarmup(0.2),
		WithSeed(1),
		WithMetrics(reg),
	)
	if _, err := Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sim.events_dispatched",
		"sim.packets_created",
		"buffer.accepts",
		"sched.served_packets.FIFO+thresholds",
		"experiment.run_events",
	} {
		v, ok := reg.Value(name)
		if !ok {
			t.Errorf("metric %s not registered; have %v", name, reg.Names())
			continue
		}
		if v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	// The pool's leak detector: packets out at once never exceed what
	// the 1 MB buffer, the wire and the six shaping queues can hold
	// (2000 + 1 + the shaped flows' bursts), however many were offered;
	// a missing release would count every packet of the run.
	live := reg.Gauge("sim.packets_live").Max()
	admitted, _ := reg.Value("buffer.accepts")
	t.Logf("sim.packets_live high-water %d of %v admitted", live, admitted)
	if live <= 0 || live > 4000 {
		t.Errorf("sim.packets_live high-water %d, want within (0, 4000]", live)
	}
}
