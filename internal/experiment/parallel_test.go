package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bufqos/internal/units"
)

// table1Sweep runs the Figure-1 sweep — the Table 1 workload under the
// four §3.2 schemes, the reference workload for the equivalence tests —
// and draws its utilization curves.
func table1Sweep(ctx context.Context, o *Options) ([]Series, error) {
	w := &Workload{Flows: Table1Flows(), QueueOf: Table1QueueOf()}
	ax := bufferAxis(o, 0)
	sets, err := runSweep(ctx, o, w, thresholdSpecs, ax)
	return view(thresholdSpecs, sets, utilizationCurve, len(ax.xs)), err
}

// TestParallelRunLinesMatchesSequential asserts that fanning the Table 1
// sweep onto 8 workers produces byte-identical Series to a sequential
// sweep: same labels, same points, bit-equal floats.
func TestParallelRunLinesMatchesSequential(t *testing.T) {
	opts := &Options{
		Runs:        3,
		Duration:    2,
		BufferSizes: []units.Bytes{units.KiloBytes(500), units.MegaBytes(2)},
	}
	WithWarmup(0.25)(opts)
	WithSeed(7)(opts)
	opts.defaults()

	seq := *opts
	seq.Workers = 1
	want, err := table1Sweep(context.Background(), &seq)
	if err != nil {
		t.Fatal(err)
	}
	par := *opts
	par.Workers = 8
	got, err := table1Sweep(context.Background(), &par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel series differ from sequential:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestParallelErrorDeterministic checks ForEachJob reports the earliest
// failing job regardless of scheduling, and skips work after a failure.
func TestParallelErrorDeterministic(t *testing.T) {
	errA := errors.New("job 2 failed")
	errB := errors.New("job 7 failed")
	for _, workers := range []int{1, 4} {
		err := ForEachJob(context.Background(), workers, 10, nil, nil, func(i int) error {
			switch i {
			case 2:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: got error %v, want earliest job's (%v)", workers, err, errA)
		}
	}
	var ran atomic.Int64
	if err := ForEachJob(context.Background(), 4, 100, nil, nil, func(i int) error {
		ran.Add(1)
		return errA
	}); err == nil {
		t.Error("failure not propagated")
	}
	if ran.Load() == 100 {
		t.Error("no jobs were skipped after the first failure")
	}
}

// TestPoolCancellation cancels a sweep mid-flight and verifies the three
// promises of the context-aware pool: it returns promptly (within about
// one run, not the whole sweep), leaks no goroutines, and leaves the
// already-completed slots' results intact.
func TestPoolCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())

	const n = 64
	done := make([]bool, n)
	var completed atomic.Int64
	err := ForEachJob(ctx, 4, n, nil, nil, func(i int) error {
		if completed.Add(1) == 8 {
			cancel() // cancel once a handful of jobs have finished
		}
		time.Sleep(2 * time.Millisecond)
		done[i] = true
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	finished := 0
	for _, d := range done {
		if d {
			finished++
		}
	}
	if finished == 0 || finished == n {
		t.Errorf("finished %d/%d jobs; want a proper partial prefix", finished, n)
	}
	// All workers must have exited: no goroutine leak. Allow a little
	// slack for runtime background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("%d goroutines after cancelled pool, started with %d", g, before)
	}
}

// TestSweepCancellationPartialResults cancels a figure sweep mid-run and
// checks the partial Series: well-formed shape, completed points kept,
// prompt return bounded by roughly one run's duration.
func TestSweepCancellationPartialResults(t *testing.T) {
	opts := &Options{
		Runs:        2,
		Duration:    2,
		Workers:     2,
		BufferSizes: []units.Bytes{units.KiloBytes(500), units.MegaBytes(1), units.MegaBytes(2)},
	}
	WithWarmup(0.2)(opts)
	opts.defaults()

	var seen atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Progress = func(p Progress) {
		if seen.Add(1) == 3 {
			cancel()
		}
	}
	start := time.Now()
	series, err := table1Sweep(ctx, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	// A full sequential sweep is 4 schemes × 3 points × 2 runs = 24 runs;
	// cancellation after ~3 must return long before that.
	if elapsed > 15*time.Second {
		t.Errorf("cancelled sweep took %v", elapsed)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series, want 4 (one per scheme)", len(series))
	}
	total, populated := 0, 0
	for _, s := range series {
		if len(s.Points) != len(opts.BufferSizes) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(opts.BufferSizes))
		}
		for _, p := range s.Points {
			total++
			if p.N > 0 {
				populated++
				if p.Mean <= 0 || p.Mean > 1.01 {
					t.Errorf("series %q has nonsense utilization %v", s.Label, p.Mean)
				}
			}
		}
	}
	if populated == total {
		t.Error("every point fully populated — cancellation did nothing")
	}
}

// TestOptionsDefaults pins the defaults contract of the redesigned API:
// the zero Options reproduces the paper's setup, and WithWarmup(0) and
// WithSeed(0) are honored as explicit zeros.
func TestOptionsDefaults(t *testing.T) {
	o := NewOptions()
	o.defaults()
	if o.Duration != 20 || o.Warmup != 2 || o.Seed != 1 || o.Runs != 5 {
		t.Errorf("zero Options defaulted to duration=%v warmup=%v seed=%v runs=%v",
			o.Duration, o.Warmup, o.Seed, o.Runs)
	}
	if len(o.BufferSizes) != 10 || o.Fig7Buffer != units.MegaBytes(1) {
		t.Errorf("sweep axes: %d buffer sizes, fig7 buffer %v", len(o.BufferSizes), o.Fig7Buffer)
	}
	if o.Headroom != 0 {
		t.Errorf("single-run headroom defaulted to %v, want 0", o.Headroom)
	}
	s := NewOptions()
	s.sweepDefaults()
	if s.Headroom != units.MegaBytes(2) {
		t.Errorf("sweep headroom %v, want the paper's 2 MB", s.Headroom)
	}

	z := NewOptions(WithDuration(10), WithWarmup(0), WithSeed(0))
	z.defaults()
	if z.Warmup != 0 {
		t.Errorf("WithWarmup(0) overwritten to %v", z.Warmup)
	}
	if z.Seed != 0 {
		t.Errorf("WithSeed(0) overwritten to %v", z.Seed)
	}
}

// TestConfigExplicitZeroWarmup is the regression test for the defaults
// bug: a deliberate zero warmup used to be silently replaced with
// Duration/10. It runs end to end.
func TestConfigExplicitZeroWarmup(t *testing.T) {
	// Measuring from t=0 must count strictly more offered bytes than
	// discarding a warmup prefix.
	mk := func(opts ...Option) Result {
		res, err := Run(context.Background(), NewOptions(append(opts,
			WithFlows(Table1Flows()),
			WithSchemeSpec("fifo+threshold"),
			WithBuffer(units.MegaBytes(1)),
			WithDuration(2))...))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noWarm, defWarm := mk(WithWarmup(0)), mk()
	var offNo, offDef float64
	for i := range noWarm.OfferedRate {
		offNo += noWarm.OfferedRate[i].BitsPerSecond() * 2
		offDef += defWarm.OfferedRate[i].BitsPerSecond() * (2 - 0.2)
	}
	if offNo <= offDef {
		t.Errorf("zero-warmup run observed %v offered bits, want more than warmed run's %v", offNo, offDef)
	}
}
