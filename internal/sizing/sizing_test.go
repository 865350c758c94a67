package sizing

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepRejectsNonFiniteDuration: a negative, NaN or infinite
// horizon is an error, where it once silently became the 10 s default.
func TestSweepRejectsNonFiniteDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), -1} {
		cfg := Config{Duration: d, Cells: []CellSpec{{Flows: 2, Rule: RuleBDP, Scheme: "fifo+none"}}}
		if _, err := Sweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "duration") {
			t.Errorf("Duration %v: error %v, want one naming the duration", d, err)
		}
	}
}

// TestSweepRejectsBadWarmup: a NaN or negative warm-up, or one at or
// past the horizon, is an error, where it once became Duration/4 or an
// all-zero table. Zero keeps its default.
func TestSweepRejectsBadWarmup(t *testing.T) {
	for _, w := range []float64{math.NaN(), -3, 2, 5, math.Inf(1)} {
		cfg := Config{Duration: 2, Warmup: w, Cells: []CellSpec{{Flows: 2, Rule: RuleBDP, Scheme: "fifo+none"}}}
		if _, err := Sweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "warmup") {
			t.Errorf("Warmup %v: error %v, want one naming the warm-up", w, err)
		}
	}
	cfg := Config{Duration: 0.5, Cells: []CellSpec{{Flows: 2, Rule: RuleBDP, Scheme: "fifo+none"}}}
	if rep, err := Sweep(context.Background(), cfg); err != nil {
		t.Errorf("Warmup 0: %v", err)
	} else if rep.Warmup != 0.125 {
		t.Errorf("Warmup 0 measured from %v, want the default Duration/4", rep.Warmup)
	}
}

func TestParseRule(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
		err  bool
	}{
		{in: "bdp", want: Rule{Name: "bdp", Frac: 1}},
		{in: "bdp/2", want: Rule{Name: "bdp/2", Frac: 0.5}},
		{in: "bdp/sqrtn", want: Rule{Name: "bdp/sqrtn", Frac: 1, Sqrt: true}},
		{in: "bdp/2sqrtn", want: Rule{Name: "bdp/2sqrtn", Frac: 0.5, Sqrt: true}},
		{in: "bdp/4", want: Rule{Name: "bdp/4", Frac: 0.25}},
		{in: "bdp/4sqrtn", want: Rule{Name: "bdp/4sqrtn", Frac: 0.25, Sqrt: true}},
		{in: "cbr", err: true},
		{in: "bdp/", err: true},
		{in: "bdp/0", err: true},
		{in: "bdp/-2", err: true},
		{in: "bdpx", err: true},
	}
	for _, c := range cases {
		got, err := ParseRule(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseRule(%q) = %+v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestRuleResolve(t *testing.T) {
	c := defaultConfig()
	// BDP at the defaults: 100 Mb/s · 40 ms = 500 KB.
	if got := RuleBDP.Resolve(c.linkRate(), c.rtt(), 10, c.segmentSize()); got != 500000 {
		t.Errorf("bdp: %v bytes, want 500000", int64(got))
	}
	// √n rule at n=100 divides by 10.
	if got := RuleSqrt.Resolve(c.linkRate(), c.rtt(), 100, c.segmentSize()); got != 50000 {
		t.Errorf("bdp/sqrtn at n=100: %v bytes, want 50000", int64(got))
	}
	// The floor: at n=10⁶ the rule prescribes 500 bytes, clamped to two
	// segments.
	if got := RuleSqrt.Resolve(c.linkRate(), c.rtt(), 1000000, c.segmentSize()); got != 3000 {
		t.Errorf("bdp/sqrtn at n=10⁶: %v bytes, want the 3000-byte floor", int64(got))
	}
}

func defaultConfig() *Config { return &Config{} }

func TestJain(t *testing.T) {
	if got := jain([]float64{5, 5, 5, 5}); got != 1 {
		t.Errorf("even split: %v, want 1", got)
	}
	if got := jain([]float64{1, 0, 0, 0}); got != 0.25 {
		t.Errorf("single winner of 4: %v, want 0.25", got)
	}
	if got := jain([]float64{0, 0}); got != 0 {
		t.Errorf("no traffic: %v, want 0", got)
	}
}

func TestDefaultGridShape(t *testing.T) {
	cells := DefaultGrid()
	if len(cells) != 108 {
		t.Fatalf("default grid has %d cells, want 108", len(cells))
	}
	var open, big int
	for _, c := range cells {
		if c.Open {
			open++
		}
		if c.Flows >= 100000 {
			big++
			if c.Open {
				t.Errorf("large-n cell %+v must be closed-loop", c)
			}
		}
	}
	if open != 24 {
		t.Errorf("grid has %d open-loop cells, want 24", open)
	}
	if big != 4 {
		t.Errorf("grid has %d large-n cells, want 4", big)
	}
}

// TestSweepWorkerBitIdentity pins the determinism contract: the same
// Config serializes to byte-identical JSON at any worker count.
func TestSweepWorkerBitIdentity(t *testing.T) {
	cfg := Config{
		Duration: 1.5,
		Cells: append(
			Grid([]int{10, 50}, []Rule{RuleSqrt, RuleHalfBDP}, []string{"fifo+none", "fifo+threshold"}, false),
			Grid([]int{20}, []Rule{RuleSqrt}, []string{"wfq+sharing", "fifo+red"}, true)...),
	}
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		rep, err := Sweep(t.Context(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers=%d report diverges from workers=1", workers)
		}
	}
}

// cancelOnPoll is a context that reports cancellation from its n-th
// Err poll on, so a test can cancel a cell at an exact point of its run
// without timers.
type cancelOnPoll struct {
	context.Context
	polls, n int
}

func (c *cancelOnPoll) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSweepCancelsRunningCell pins that cancellation reaches a cell that
// has already started: the pool polls once before the cell and the cell
// once per chunk of simulated time, so the third poll is mid-run.
func TestSweepCancelsRunningCell(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelOnPoll{Context: live, n: 3}
	rep, err := Sweep(ctx, Config{
		Workers: 1,
		Cells:   []CellSpec{{Flows: 10, Rule: RuleSqrt, Scheme: "fifo+none"}},
	})
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("Sweep = %v, %v; want no report and context.Canceled", rep, err)
	}
	if ctx.polls != 3 {
		t.Errorf("context polled %d times, want 3: the cell ran on after cancellation", ctx.polls)
	}
}

// TestSweepMemoryCeiling pins the flow-state refactor's memory claim: a
// 10⁵-flow closed-loop cell peaks under 512 MB of live heap — per-flow
// state in flat arrays at small constants (the map era held dozens of
// pointer-laden map entries per flow). The peak is sampled by a polling
// goroutine, so the measured value is a lower bound on the true peak;
// the budget leaves generous headroom above the ~150 MB measured at the
// time of writing.
func TestSweepMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-flow cell is a few hundred ms; skipped in -short")
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	_, err := Sweep(context.Background(), Config{
		Duration: 2,
		Workers:  1,
		Cells:    []CellSpec{{Flows: 100000, Rule: RuleSqrt, Scheme: "fifo+none"}},
	})
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	const budget = 512 << 20
	if p := peak.Load(); p > base.HeapAlloc+budget {
		t.Fatalf("peak heap %d MB exceeds the %d MB budget above the %d MB baseline — per-flow state is no longer O(F) with small constants",
			p>>20, budget>>20, base.HeapAlloc>>20)
	}
}

// cellBuild builds one cell of n flows — closed-loop, or open-loop
// on-off when open is set — at a 1 ns horizon, construction and nothing
// else, and returns its mallocs and bytes.
func cellBuild(t *testing.T, n int, open bool) (mallocs, bytes uint64) {
	t.Helper()
	cfg := Config{Duration: 1e-9}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := runCell(context.Background(), &cfg, CellSpec{Flows: n, Rule: RuleSqrt, Scheme: "fifo+threshold", Open: open}, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestClosedCellBuildsInConstantAllocations is construction's gate for
// the closed-loop cell: every per-flow object lives in one slab per
// kind and every start event carries its sender, so doubling the
// population adds no more than a few mallocs (slab and map regrowth
// steps), where a heap object per flow would add 10⁴.
func TestClosedCellBuildsInConstantAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not pinned under -short (the race detector's runs)")
	}
	m1, _ := cellBuild(t, 10000, false)
	m2, _ := cellBuild(t, 20000, false)
	t.Logf("cell build: %d mallocs at n=10⁴, %d at n=2·10⁴", m1, m2)
	if m2 > m1+32 {
		t.Errorf("building 2·10⁴ flows costs %d mallocs against %d for 10⁴: per-flow state is no longer in slabs", m2, m1)
	}
}

// TestOpenCellBuildsInConstantAllocations is the open-loop twin: every
// on-off source and its random stream live in the flow layer's slabs and
// are seeded in place when the flow starts, so doubling 10⁴ on-off flows
// adds no more than a few mallocs, where a stream per flow would add 2·10⁴.
func TestOpenCellBuildsInConstantAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not pinned under -short (the race detector's runs)")
	}
	m1, _ := cellBuild(t, 10000, true)
	m2, _ := cellBuild(t, 20000, true)
	t.Logf("open cell build: %d mallocs at n=10⁴, %d at n=2·10⁴", m1, m2)
	if m2 > m1+32 {
		t.Errorf("building 2·10⁴ on-off flows costs %d mallocs against %d for 10⁴: per-flow state is no longer in slabs", m2, m1)
	}
}

// TestClosedCellBytesPerFlow is the per-flow memory ceiling beside
// TestSweepMemoryCeiling: building a closed-loop cell — sender (240 B,
// see internal/source's TestTCPSize), its first send ring, receiver,
// collector and propagation entries — allocates under 1.25 KB per flow
// (about 1 KB at the time of writing).
func TestClosedCellBytesPerFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not pinned under -short (the race detector's runs)")
	}
	const n, ceiling = 20000, 1280
	_, bytes := cellBuild(t, n, false)
	perFlow := bytes / n
	t.Logf("cell build: %d bytes per flow", perFlow)
	if perFlow > ceiling {
		t.Errorf("building a closed-loop cell allocates %d bytes per flow, ceiling %d", perFlow, ceiling)
	}
}

// TestOpenCellBytesPerFlow is its open-loop twin: an on-off flow's
// source, its random stream (a sim.Rand of about 90 B, whose register is
// built only past its 607th draw, which a 1 ns cell never reaches),
// collector and kernel entries allocate under 590 B per flow (535 B at
// the time of writing). An open cell books each departure at once, so
// it builds no delivery sink, no propagation delays, no stream to draw
// them and no kernel room for packets in flight; those cost 43 B more.
// A stream that seeded its full register again would cost 4.9 KB more.
func TestOpenCellBytesPerFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are not pinned under -short (the race detector's runs)")
	}
	const n, ceiling = 20000, 590
	_, bytes := cellBuild(t, n, true)
	perFlow := bytes / n
	t.Logf("open cell build: %d bytes per flow", perFlow)
	if perFlow > ceiling {
		t.Errorf("building an open-loop cell allocates %d bytes per flow, ceiling %d", perFlow, ceiling)
	}
}

// BenchmarkSmallCell measures the full single-link closed-loop path at
// small n — the "no slower at small n" half of the flow-state
// refactor's contract (the ring microbenchmarks in internal/source and
// internal/network cover the per-op costs).
func BenchmarkSmallCell(b *testing.B) {
	cfg := Config{
		Duration: 1,
		Workers:  1,
		Cells:    []CellSpec{{Flows: 10, Rule: RuleBDP, Scheme: "fifo+none"}},
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Sweep(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
