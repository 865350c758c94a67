package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bufqos/internal/metrics"
	"bufqos/internal/units"
)

// tinyOpts keeps figure tests fast: one run, short duration, two buffer
// points.
func tinyOpts() *Options {
	o := &Options{
		Runs:        1,
		Duration:    2,
		BufferSizes: []units.Bytes{units.KiloBytes(500), units.MegaBytes(2)},
		Headrooms:   []units.Bytes{0, units.KiloBytes(500)},
		Headroom:    units.KiloBytes(500),
	}
	WithWarmup(0.25)(o)
	WithSeed(7)(o)
	return o
}

// figure regenerates one figure from a fresh figure set.
func figure(t *testing.T, opts *Options, id string) Figure {
	t.Helper()
	figs, err := NewFigures(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := figs.Figure(context.Background(), id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return fig
}

func TestFigureRegistryComplete(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 13 {
		t.Fatalf("registry has %d figures, want 13", len(ids))
	}
	for i, id := range ids {
		if want := fmt.Sprintf("fig%d", i+1); id != want {
			t.Errorf("IDs not in the paper's order: %v", ids)
			break
		}
	}
	figs, err := NewFigures(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := figs.Figure(context.Background(), "fig14"); err == nil {
		t.Error("unknown figure id accepted")
	}
}

func TestAllFiguresRunTiny(t *testing.T) {
	figs, err := NewFigures(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range FigureIDs() {
		fig, err := figs.Figure(context.Background(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fig.ID != id {
			t.Errorf("%s: ID mismatch %q", id, fig.ID)
		}
		if len(fig.Xs) == 0 || len(fig.Series) == 0 {
			t.Fatalf("%s: empty figure", id)
		}
		for _, s := range fig.Series {
			if len(s.Points) != len(fig.Xs) {
				t.Fatalf("%s %s: %d points for %d xs", id, s.Label, len(s.Points), len(fig.Xs))
			}
		}
	}
}

func TestFigure1SeriesLabels(t *testing.T) {
	fig := figure(t, tinyOpts(), "fig1")
	for _, want := range []string{"FIFO", "WFQ", "FIFO+thresholds", "WFQ+thresholds"} {
		if _, ok := fig.SeriesByLabel(want); !ok {
			t.Errorf("figure 1 missing series %q", want)
		}
	}
	if _, ok := fig.SeriesByLabel("nope"); ok {
		t.Error("SeriesByLabel found a nonexistent label")
	}
}

func TestFigure7SweepsHeadroom(t *testing.T) {
	opts := tinyOpts()
	fig := figure(t, opts, "fig7")
	if len(fig.Xs) != len(opts.Headrooms) {
		t.Errorf("figure 7 xs = %v, want one per headroom", fig.Xs)
	}
	if !strings.Contains(fig.XLabel, "headroom") {
		t.Errorf("figure 7 XLabel = %q", fig.XLabel)
	}
}

func TestWriteTableFormat(t *testing.T) {
	fig := figure(t, tinyOpts(), "fig2")
	var b strings.Builder
	if err := WriteTable(&b, fig); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fig2") || !strings.Contains(out, "±") {
		t.Errorf("table output missing header or ci marker:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + column row + one row per X.
	if len(lines) != 2+len(fig.Xs) {
		t.Errorf("table has %d lines, want %d", len(lines), 2+len(fig.Xs))
	}
}

func TestWriteCSVFormat(t *testing.T) {
	fig := figure(t, tinyOpts(), "fig5")
	var b strings.Builder
	if err := WriteCSV(&b, fig); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(fig.Xs) {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(fig.Xs))
	}
	wantCols := 1 + 2*len(fig.Series)
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != wantCols {
			t.Errorf("csv line %d has %d columns, want %d", i, got, wantCols)
		}
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Error("plain string escaped")
	}
	if csvEscape(`a,b`) != `"a,b"` {
		t.Errorf("comma not quoted: %s", csvEscape(`a,b`))
	}
	if csvEscape(`a"b`) != `"a""b"` {
		t.Errorf("quote not doubled: %s", csvEscape(`a"b`))
	}
}

func TestSweepDefaults(t *testing.T) {
	var o Options
	o.sweepDefaults()
	if o.Runs != 5 || o.Duration != 20 || o.Warmup != 2 {
		t.Errorf("defaults = %+v", o)
	}
	if len(o.BufferSizes) != 10 || o.BufferSizes[0] != units.KiloBytes(500) || o.BufferSizes[9] != units.MegaBytes(5) {
		t.Errorf("default buffer sweep = %v", o.BufferSizes)
	}
	if o.Headroom != units.MegaBytes(2) {
		t.Errorf("default headroom = %v, want paper's 2MB", o.Headroom)
	}
	if len(o.Headrooms) != 11 {
		t.Errorf("default headroom sweep = %v", o.Headrooms)
	}
}

// runCount is the number of simulation runs a registry has seen.
func runCount(reg *metrics.Registry) int64 {
	return reg.Histogram("experiment.run_events", runEventBuckets).Count()
}

// TestFiguresRunEachSimulationOnce pins the memo: figures that view the
// same runs pay for them once per figure set, a figure alone pays only
// for its own schemes, and SweepWorkload draws both its figures from
// one pass.
func TestFiguresRunEachSimulationOnce(t *testing.T) {
	opts := tinyOpts()
	opts.Runs = 2
	opts.Metrics = metrics.NewRegistry()
	perScheme := int64(len(opts.BufferSizes) * opts.Runs)

	var done atomic.Int64
	opts.OnDone = func(int) { done.Add(1) }

	figs, err := NewFigures(opts)
	if err != nil {
		t.Fatal(err)
	}
	var first [3]Figure
	for i, id := range []string{"fig1", "fig2", "fig3"} {
		pending := int64(figs.Runs(id))
		before := runCount(opts.Metrics)
		if first[i], err = figs.Figure(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		got := runCount(opts.Metrics)
		if got != 4*perScheme {
			t.Errorf("after %s: %d runs, want the four schemes' %d", id, got, 4*perScheme)
		}
		if got-before != pending || done.Load() != got {
			t.Errorf("%s: Runs said %d, it ran %d, OnDone counted %d in all of %d", id, pending, got-before, done.Load(), got)
		}
	}
	// A memoised figure is the figure a fresh set computes.
	alone := tinyOpts()
	alone.Runs = opts.Runs
	if fresh := figure(t, alone, "fig3"); !reflect.DeepEqual(first[2], fresh) {
		t.Errorf("fig3 from shared runs differs from fig3 alone:\ngot  %+v\nwant %+v", first[2], fresh)
	}

	opts.Metrics = metrics.NewRegistry()
	figure(t, opts, "fig5")
	if got := runCount(opts.Metrics); got != 2*perScheme {
		t.Errorf("fig5 alone: %d runs, want %d", got, 2*perScheme)
	}

	opts.Metrics = metrics.NewRegistry()
	w := &Workload{Flows: Table1Flows(), QueueOf: Table1QueueOf()}
	specs := []string{"fifo+threshold", "wfq+sharing", "fifo+none"}
	util, loss, err := SweepWorkload(context.Background(), w, specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := runCount(opts.Metrics); got != 3*perScheme || int64(SweepRuns(w, specs, opts)) != got {
		t.Errorf("SweepWorkload: %d runs, want %d, as SweepRuns says %d", got, 3*perScheme, SweepRuns(w, specs, opts))
	}
	if len(util.Series) != 3 || len(loss.Series) != 3 || util.Series[1].Label != "WFQ+sharing" {
		t.Errorf("SweepWorkload series: util %+v loss %+v", util.Series, loss.Series)
	}
}

// TestFigurePointsMatchDirectRun is the oracle that does not go through
// the figure table, the sweep runner or the memo: a point of Figures 3
// and 13 equals the metric of a run configured by hand.
func TestFigurePointsMatchDirectRun(t *testing.T) {
	opts := tinyOpts() // one replication: a point's mean is that run's value
	figs, err := NewFigures(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the memo so the figures under test read shared runs.
	for _, id := range []string{"fig1", "fig11"} {
		if _, err := figs.Figure(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	direct := func(flows []FlowConfig, queueOf []int, spec string, xi int, headroom units.Bytes) Result {
		res, err := Run(context.Background(), NewOptions(
			WithFlows(flows), WithQueues(queueOf), WithSchemeSpec(spec),
			WithBuffer(opts.BufferSizes[xi]), WithHeadroom(headroom),
			WithDuration(opts.Duration), WithWarmup(opts.Warmup), WithSeed(opts.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	point := func(id, label string, xi int) float64 {
		fig, err := figs.Figure(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := fig.SeriesByLabel(label)
		if !ok {
			t.Fatalf("%s has no series %q", id, label)
		}
		return s.Points[xi].Mean
	}

	r3 := direct(Table1Flows(), Table1QueueOf(), "wfq+threshold", 1, 0)
	if got, want := point("fig3", "WFQ+thresholds flow8", 1), r3.FlowThroughput[8].Mbits(); got != want {
		t.Errorf("fig3 WFQ+thresholds flow8 at %v: %v, direct run %v", opts.BufferSizes[1], got, want)
	}
	r13 := direct(Table2Flows(), Table2QueueOf(), "hybrid+sharing", 0, opts.Headroom)
	want := 0.0
	for id := 20; id < 30; id++ {
		want += r13.FlowThroughput[id].Mbits()
	}
	want /= 10
	if got := point("fig13", "hybrid+sharing aggressive", 0); got != want {
		t.Errorf("fig13 hybrid+sharing aggressive at %v: %v, direct run %v", opts.BufferSizes[0], got, want)
	}
}

// TestSweepOptionsValidated: options no simulation can honour are an
// error when a sweep starts, not a panic or an all-zero figure inside it.
func TestSweepOptionsValidated(t *testing.T) {
	kb := units.KiloBytes
	cases := []struct {
		name string
		opts *Options
		want string // substring naming the setting; "" = valid
	}{
		{"defaults", nil, ""},
		{"explicit zero warmup", NewOptions(WithWarmup(0)), ""},
		{"negative runs", &Options{Runs: -1}, "runs"},
		{"negative duration", &Options{Duration: -3}, "duration"},
		{"NaN duration", &Options{Duration: math.NaN()}, "duration"},
		{"infinite duration", &Options{Duration: math.Inf(1)}, "duration"},
		{"negative warmup", NewOptions(WithWarmup(-1)), "warmup"},
		{"warmup beyond duration", NewOptions(WithDuration(1), WithWarmup(5)), "warmup"},
		{"warmup equals duration", NewOptions(WithDuration(1), WithWarmup(1)), "warmup"},
		{"zero buffer", &Options{BufferSizes: []units.Bytes{kb(500), 0}}, "buffers[1]"},
		{"negative buffer", &Options{BufferSizes: []units.Bytes{kb(-500)}}, "buffers[0]"},
		{"negative headroom entry", &Options{Headrooms: []units.Bytes{0, kb(-1)}}, "headrooms[1]"},
		{"negative headroom", &Options{Headroom: kb(-1)}, "headroom"},
	}
	w := &Workload{Flows: Table1Flows()}
	// Already cancelled, so a sweep given valid options returns before
	// simulating anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		_, err := NewFigures(c.opts)
		_, _, werr := SweepWorkload(ctx, w, nil, c.opts)
		if c.want == "" {
			if err != nil || !errors.Is(werr, context.Canceled) {
				t.Errorf("%s: rejected: %v / %v", c.name, err, werr)
			}
			continue
		}
		for _, e := range []error{err, werr} {
			if e == nil || !strings.Contains(e.Error(), c.want) {
				t.Errorf("%s: error %v, want one naming %q", c.name, e, c.want)
			}
		}
	}
}

// TestCancelledFigureIsNotRemembered: an interrupted figure is returned
// partial with ctx.Err(), and asking again re-simulates it in full
// rather than serving the gaps from the memo.
func TestCancelledFigureIsNotRemembered(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := tinyOpts()
	opts.Workers = 1
	done := 0
	opts.OnDone = func(int) {
		if done++; done == 3 {
			cancel()
		}
	}
	figs, err := NewFigures(opts)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := figs.Figure(ctx, "fig2")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	if n := partial.Series[3].Points[1].N; n != 0 {
		t.Errorf("last point of the cancelled figure summarizes %d runs, want none", n)
	}
	again, err := figs.Figure(context.Background(), "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if want := figure(t, tinyOpts(), "fig2"); !reflect.DeepEqual(again, want) {
		t.Errorf("figure after a cancelled attempt:\ngot  %+v\nwant %+v", again, want)
	}
}
