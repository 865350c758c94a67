package experiment

import (
	"context"
	"runtime"
	"testing"

	"bufqos/internal/units"
)

// runMallocs returns how many heap objects one Table 1 run of the given
// duration allocates, construction included.
func runMallocs(t *testing.T, duration float64) uint64 {
	t.Helper()
	o := NewOptions(
		WithFlows(Table1Flows()),
		WithSchemeSpec("fifo+threshold"),
		WithBuffer(units.MegaBytes(1)),
		WithDuration(duration),
		WithSeed(1),
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunAllocationsDoNotScaleWithPackets is the end-to-end allocation
// gate: experiment.Run on Table 1 offers about 13 000 packets per
// simulated second, and a run twice as long may allocate only a fixed
// handful more — slices that grow (the shaper queues, the pool's
// chunks, the event arena), never something per packet.
func TestRunAllocationsDoNotScaleWithPackets(t *testing.T) {
	const (
		duration = 5.0
		// Twice the packets may cost this many more heap objects.
		extra = 64
	)
	runMallocs(t, duration) // first-use initialisation anywhere below Run
	short, long := runMallocs(t, duration), runMallocs(t, 2*duration)
	t.Logf("%v s: %d mallocs, %v s: %d mallocs", duration, short, 2*duration, long)
	if long > short+extra {
		t.Errorf("%v s run allocates %d objects, %v s run %d: more than %d extra, so something allocates per packet",
			2*duration, long, duration, short, extra)
	}
}
