package topology

import (
	"cmp"
	"context"
	"fmt"

	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/scheme"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// linkSeedBase offsets the seed stream of link components (randomized
// buffer managers) far away from the per-flow streams, so adding flows
// never perturbs a link's RNG and vice versa.
const linkSeedBase = 1 << 16

// Options parameterizes one scenario run.
type Options struct {
	// Duration is the simulated horizon in seconds.
	Duration float64
	// Seed is the base random seed; every flow and link derives its own
	// independent stream from it.
	Seed int64
	// Metrics, when non-nil, receives kernel and per-link counters. It
	// may be shared across concurrent runs.
	Metrics *metrics.Registry
	// Shards partitions the link graph into up to this many groups,
	// each driven by its own event kernel on its own goroutine with
	// conservative lookahead synchronization (see internal/shard).
	// Results are bit-identical for every value; 0 and 1 mean
	// single-shard. The effective count is clamped to the number of
	// zero-propagation-delay link groups.
	Shards int
	// SkipLinkFlows leaves LinkResult.Flows nil, keeping only the
	// always-populated Totals. With L links and F flows the per-link
	// flow tables cost O(L·F) memory in the Result — prohibitive at
	// 10³ links × 10⁵ flows — while Totals stay O(L). Each link then
	// counts into one totals row instead of a row per flow, and Verify
	// asserts zero conformant loss per link from the totals instead of
	// per flow.
	SkipLinkFlows bool
}

// Rejection records one admission denial: the flow, the first link on
// its route that refused it, and the paper's reason taxonomy
// (bandwidth- vs buffer-limited, §2.3).
type Rejection struct {
	Flow   string
	Link   string
	At     float64
	Reason core.RejectReason
}

// LinkFlow is one flow's counters at one link.
type LinkFlow struct {
	Offered           stats.Counter
	Dropped           stats.Counter
	ConformantDropped stats.Counter
	Departed          stats.Counter
	// Forwarded counts packets handed to the next hop (or the delivery
	// sink). Every departure is handed onward, so it is
	// Departed.Packets.
	Forwarded int64
}

// LinkTotals aggregates one link's counters across all flows. Unlike
// the per-flow tables, totals are always populated (see
// Options.SkipLinkFlows).
type LinkTotals struct {
	Offered           stats.Counter
	Dropped           stats.Counter
	ConformantDropped stats.Counter
	Departed          stats.Counter
	Forwarded         int64
}

// LinkResult aggregates one link over a run.
type LinkResult struct {
	Name string
	// Flows holds per-flow counters indexed by global flow id; nil when
	// the run used Options.SkipLinkFlows.
	Flows []LinkFlow
	// Totals aggregates the same counters across all flows.
	Totals LinkTotals
	// Utilization is departed bits over capacity·duration, computed
	// against the link's declared (initial) rate.
	Utilization float64
}

// Departed sums the link's transmitted bytes across flows.
func (l *LinkResult) Departed() units.Bytes { return l.Totals.Departed.Bytes }

// DroppedPackets sums the link's drops across flows.
func (l *LinkResult) DroppedPackets() int64 { return l.Totals.Dropped.Packets }

// FlowResult is one flow's end-to-end outcome.
type FlowResult struct {
	Name string
	// Admitted is true when every link on the route accepted the flow.
	// A never-joining flow (rejected, or joining past the horizon) has
	// zero traffic counters.
	Admitted bool
	// Degraded marks flows whose route crosses a link that fails or has
	// its rate cut within the run; their guarantees are void for
	// the run (the paper's admission decision assumed the declared
	// rate).
	Degraded bool
	// JoinAt/LeaveAt bound the flow's active window: JoinAt is the
	// declared join time, LeaveAt the run duration when the flow does not
	// leave within it (Left tells the difference).
	JoinAt  float64
	LeaveAt float64
	Left    bool
	// Offered counts the flow's packets entering its first hop (after
	// shaping, so for shaped flows this is the conformant envelope).
	Offered stats.Counter
	// Delivered counts end-to-end completions.
	Delivered stats.Counter
	// Throughput is delivered bits over the active window.
	Throughput units.Rate
	// MeanDelay/MaxDelay summarize end-to-end delay (source departure
	// to final delivery), in seconds.
	MeanDelay float64
	MaxDelay  float64
	// Goodput counts a closed-loop (tcp) flow's unique delivered data —
	// retransmitted copies once — and GoodputRate spreads it over the
	// active window. Both are zero for open-loop flows, whose Delivered
	// already is goodput.
	Goodput     stats.Counter
	GoodputRate units.Rate
	// Retransmits counts segments a tcp source re-emitted (fast
	// retransmit and timeout recovery combined); zero for open-loop
	// flows.
	Retransmits int64
}

// Result is the outcome of one scenario run.
type Result struct {
	Topology   string
	Duration   float64
	Seed       int64
	Flows      []FlowResult
	Links      []LinkResult
	Rejections []Rejection
	// Events counts dispatched kernel events, summed across shards. It
	// is invariant across shard counts: a cross-shard hand-off replaces
	// exactly one propagation event.
	Events uint64
}

// Admission maps the link's scheme to the admission region its
// scheduler can guarantee: WFQ gets eqs. (5)-(6); everything else is
// held to the FIFO region, eqs. (7)-(8), which is the conservative
// choice — any flow set schedulable under FIFO thresholds is
// schedulable under the stronger schedulers too (B_FIFO ≥ B_WFQ for
// the same set). It is the one such map: the offline engine's plan and
// the admission daemon both take their regions from it. A link that
// was not validated (the daemon ignores the scenario's flows, so it
// never validates) has its Spec parsed here, an empty one meaning
// Validate's default.
func (l *Link) Admission() (core.LinkConfig, error) {
	sc := l.scheme
	if sc == nil {
		var err error
		if sc, err = scheme.Parse(cmp.Or(l.Spec, defaultSpec)); err != nil {
			return core.LinkConfig{}, err
		}
	}
	d := core.DisciplineFIFO
	if sc.SchedulerName() == "wfq" {
		d = core.DisciplineWFQ
	}
	return core.LinkConfig{Discipline: d, Rate: l.Rate, Buffer: l.Buffer}, nil
}

// degradedLinks marks links whose declared capacity is violated within
// the horizon: a failure, or a rate event below the declared rate.
func degradedLinks(t *Topology, duration float64) []bool {
	deg := make([]bool, len(t.Links))
	for _, ev := range t.Events {
		if ev.At > duration {
			break
		}
		switch ev.Kind {
		case EventFail:
			deg[ev.link] = true
		case EventRate:
			if ev.Rate < t.Links[ev.link].Rate {
				deg[ev.link] = true
			}
		}
	}
	return deg
}

// Run executes one scenario and returns its measurements. ctx cancels
// a run between synchronization windows; results are bit-identical
// with and without a cancellable context, across any worker count when
// driven through RunMany, and across any Options.Shards value.
func Run(ctx context.Context, t *Topology, opts Options) (Result, error) {
	if !experiment.ValidDuration(opts.Duration) {
		return Result{}, fmt.Errorf("topology %s: duration %v is not positive and finite", t.Name, opts.Duration)
	}
	e, err := newEngine(t, opts)
	if err != nil {
		return Result{}, err
	}
	return e.run(ctx)
}

// RunMany executes runs independent replications — run r uses seed
// opts.Seed + r — fanning them over the experiment worker pool. Result
// slots are pre-assigned per run, so the output is bit-identical for
// any worker count. onDone, when non-nil, is called after each
// completed run (possibly concurrently).
func RunMany(ctx context.Context, t *Topology, opts Options, runs, workers int, onDone func(i int)) ([]Result, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("topology %s: non-positive run count %d", t.Name, runs)
	}
	results := make([]Result, runs)
	err := experiment.ForEachJob(ctx, workers, runs, opts.Metrics, onDone, func(i int) error {
		o := opts
		o.Seed = opts.Seed + int64(i)
		res, err := Run(ctx, t, o)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, o.Seed, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
