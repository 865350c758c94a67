package experiment

import (
	"context"
	"fmt"
	"strings"

	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []stats.Summary // one per X value
}

// Figure is the regenerated data of one of the paper's figures.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []Series
}

// curve is one plotted view of a scheme's runs: the series label is the
// scheme's display label plus suffix.
type curve struct {
	suffix string
	metric func(Result) float64
}

// headroomUse says which headroom a figure's runs are configured with.
type headroomUse int

const (
	noHeadroom     headroomUse = iota // H = 0 (§3.2, fixed thresholds)
	optionHeadroom                    // H = Options.Headroom, buffer swept
	sweepHeadroom                     // Figure 7: H swept at B = Options.Fig7Buffer
)

// figureDecl declares one paper figure as a set of views over runs. In
// the title, {H} and {B} stand for Options.Headroom and Fig7Buffer.
type figureDecl struct {
	id, title, ylabel string
	table             int // the paper's workload: Table 1 or Table 2
	specs             []string
	headroom          headroomUse
	curves            []curve
}

var (
	thresholdSpecs = []string{"fifo+threshold", "wfq+threshold", "fifo+none", "wfq+none"}
	sharingSpecs   = []string{"fifo+sharing", "wfq+sharing"}
	hybridSpecs    = []string{"hybrid+sharing", "wfq+sharing", "fifo+sharing"}

	utilizationCurve = []curve{{"", func(r Result) float64 { return r.Utilization }}}
	lossCurve        = []curve{{"", func(r Result) float64 { return r.ConformantLoss }}}
	// Flows 6 and 8 of Table 1 differ 5× in reservation (0.4 vs 2 Mb/s).
	flow68Curves = []curve{
		{" flow6", func(r Result) float64 { return r.FlowThroughput[6].Mbits() }},
		{" flow8", func(r Result) float64 { return r.FlowThroughput[8].Mbits() }},
	}
)

// figureTable is the paper's evaluation, §3.2–§4.2, in the paper's
// order. Figures that plot different quantities of the same experiment
// (1–3, 4–6, 8–10, 11–13) name the same runs; see Figures.
var figureTable = []figureDecl{
	{id: "fig1", title: "Aggregate throughput with threshold based buffer management",
		ylabel: "link utilization", table: 1, specs: thresholdSpecs, curves: utilizationCurve},
	{id: "fig2", title: "Loss for conformant flows with threshold based buffer management",
		ylabel: "conformant loss ratio", table: 1, specs: thresholdSpecs, curves: lossCurve},
	// Only WFQ+thresholds shares excess in the reservation ratio.
	{id: "fig3", title: "Throughput for non-conformant flows with threshold based buffer management",
		ylabel: "throughput (Mb/s)", table: 1, specs: thresholdSpecs, curves: flow68Curves},
	// Includes the no-buffer-management baselines for comparison with
	// Figure 1.
	{id: "fig4", title: "Aggregate throughput with Buffer Sharing (H = {H})",
		ylabel: "link utilization", table: 1, headroom: optionHeadroom,
		specs: []string{"fifo+sharing", "wfq+sharing", "fifo+none", "wfq+none"}, curves: utilizationCurve},
	{id: "fig5", title: "Loss for conformant flows in Buffer Sharing (H = {H})",
		ylabel: "conformant loss ratio", table: 1, headroom: optionHeadroom,
		specs: sharingSpecs, curves: lossCurve},
	// With sharing, FIFO mimics WFQ's proportional split.
	{id: "fig6", title: "Throughput for non-conformant flows with Buffer Sharing",
		ylabel: "throughput (Mb/s)", table: 1, headroom: optionHeadroom,
		specs: sharingSpecs, curves: flow68Curves},
	{id: "fig7", title: "Effect of varying the headroom (B = {B})",
		ylabel: "conformant loss ratio", table: 1, headroom: sweepHeadroom,
		specs: sharingSpecs, curves: lossCurve},
	{id: "fig8", title: "Hybrid System, Case 1: Aggregate throughput with Buffer Sharing",
		ylabel: "link utilization", table: 1, headroom: optionHeadroom,
		specs: hybridSpecs, curves: utilizationCurve},
	{id: "fig9", title: "Hybrid System, Case 1: Loss for conformant flows with Buffer Sharing",
		ylabel: "conformant loss ratio", table: 1, headroom: optionHeadroom,
		specs: hybridSpecs, curves: lossCurve},
	{id: "fig10", title: "Hybrid System, Case 1: Throughput for non-conformant flows with Buffer Sharing",
		ylabel: "throughput (Mb/s)", table: 1, headroom: optionHeadroom,
		specs: hybridSpecs, curves: flow68Curves},
	{id: "fig11", title: "Hybrid System, Case 2: Aggregate throughput with Buffer Sharing",
		ylabel: "link utilization", table: 2, headroom: optionHeadroom,
		specs: hybridSpecs, curves: utilizationCurve},
	{id: "fig12", title: "Hybrid System, Case 2: Loss for conformant and moderately conformant flows",
		ylabel: "loss ratio (flows 0-19)", table: 2, headroom: optionHeadroom,
		specs: hybridSpecs, curves: []curve{{"", lossOver(0, 20)}}},
	// Mean per-flow throughput of Table 2's moderate (10–19) and
	// aggressive (20–29) classes.
	{id: "fig13", title: "Hybrid System, Case 2: Throughput for non-conformant flows with Buffer Sharing",
		ylabel: "mean per-flow throughput (Mb/s)", table: 2, headroom: optionHeadroom,
		specs:  hybridSpecs,
		curves: []curve{{" moderate", meanThroughputMbps(10, 20)}, {" aggressive", meanThroughputMbps(20, 30)}}},
}

// FigureIDs returns the known figure IDs in the paper's order.
func FigureIDs() []string {
	ids := make([]string, len(figureTable))
	for i := range figureTable {
		ids[i] = figureTable[i].id
	}
	return ids
}

// meanThroughputMbps averages the delivered Mb/s over flows [lo, hi).
func meanThroughputMbps(lo, hi int) func(Result) float64 {
	return func(r Result) float64 {
		sum := 0.0
		for id := lo; id < hi; id++ {
			sum += r.FlowThroughput[id].Mbits()
		}
		return sum / float64(hi-lo)
	}
}

// lossOver computes the byte-weighted loss ratio over flows [lo, hi)
// from per-flow loss and offered rates.
func lossOver(lo, hi int) func(Result) float64 {
	return func(r Result) float64 {
		var lost, offered float64
		for id := lo; id < hi; id++ {
			offered += r.OfferedRate[id].BitsPerSecond()
			lost += r.FlowLoss[id] * r.OfferedRate[id].BitsPerSecond()
		}
		if offered == 0 {
			return 0
		}
		return lost / offered
	}
}

// sweepReady returns a defaulted and validated copy of o (nil meaning
// all defaults) for the sweeps, leaving the caller's Options intact.
func (o *Options) sweepReady() (*Options, error) {
	var c Options
	if o != nil {
		c = *o
	}
	c.sweepDefaults()
	return &c, c.validateSweep()
}

// runSet holds every Result of one scheme over one swept axis: the run
// at x index xi, replication r is res[xi*Runs+r], valid when ok says so
// (a cancelled sweep leaves gaps).
type runSet struct {
	res []Result
	ok  []bool
}

// axis is the swept quantity of a sweep: its values and how a value
// configures a run.
type axis struct {
	label string
	xs    []units.Bytes
	at    func(x units.Bytes) (buffer, headroom units.Bytes)
}

func bufferAxis(o *Options, headroom units.Bytes) axis {
	return axis{"buffer (MB)", o.BufferSizes, func(x units.Bytes) (units.Bytes, units.Bytes) { return x, headroom }}
}

// runSweep simulates workload w under every spec at every point of ax,
// o.Runs times each, and returns one runSet per spec. The (spec, x,
// replication) runs are independent — each owns its simulator and a seed
// derived only from the replication index — so they fan out onto
// o.Workers goroutines, every Result landing in a pre-assigned slot: the
// run sets are identical for any worker count, and every curve drawn
// from a scheme reads the same runs.
//
// Cancelling ctx stops the sweep within roughly one run's duration; the
// run sets are then partial and the error is ctx.Err(). o.OnDone, when
// set, is called after every completed run; o.Metrics aggregates the
// simulation metrics of all runs.
func runSweep(ctx context.Context, o *Options, w *Workload, specs []string, ax axis) ([]runSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nx, nr := len(ax.xs), o.Runs
	sets := make([]runSet, len(specs))
	for si := range sets {
		sets[si] = runSet{make([]Result, nx*nr), make([]bool, nx*nr)}
	}
	total := len(specs) * nx * nr
	err := ForEachJob(ctx, o.Workers, total, o.Metrics, o.OnDone, func(j int) error {
		si, slot, r := j/(nx*nr), j%(nx*nr), j%nr
		x := ax.xs[slot/nr]
		rc := &Options{
			Flows:      w.Flows,
			SchemeSpec: specs[si],
			LinkRate:   w.LinkRate,
			QueueOf:    w.QueueOf,
			Duration:   o.Duration,
			Warmup:     o.Warmup,
			warmupSet:  true,
			Seed:       o.Seed + int64(r),
			seedSet:    true,
			Metrics:    o.Metrics,
		}
		rc.Buffer, rc.Headroom = ax.at(x)
		res, err := Run(ctx, rc)
		if err != nil {
			return fmt.Errorf("%s at %v run %d: %w", specLabel(specs[si]), x, r, err)
		}
		sets[si].res[slot], sets[si].ok[slot] = res, true
		return nil
	})
	return sets, err
}

// view draws curves over the run sets of specs: one Series per (spec,
// curve), each point summarizing the runs that completed, in
// replication order.
func view(specs []string, sets []runSet, curves []curve, nx int) []Series {
	var series []Series
	for si, spec := range specs {
		set := sets[si]
		nr := len(set.res) / nx
		for _, c := range curves {
			points := make([]stats.Summary, nx)
			for xi := range points {
				complete := make([]float64, 0, nr)
				for slot := xi * nr; slot < (xi+1)*nr; slot++ {
					if set.ok[slot] {
						complete = append(complete, c.metric(set.res[slot]))
					}
				}
				points[xi] = stats.Summarize(complete)
			}
			series = append(series, Series{Label: specLabel(spec) + c.suffix, Points: points})
		}
	}
	return series
}

func mbAxis(xs []units.Bytes) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.MB()
	}
	return out
}

// Figures regenerates the paper's figures for one set of Options,
// simulating every distinct run once: a figure's runs are remembered by
// (workload table, scheme, headroom use), so after Figure 1 has paid for
// its four schemes' runs, Figures 2 and 3 are free, and Figures 8–10
// reuse the sharing runs of Figures 4–6. It is not safe for concurrent
// use; each Figure call already spreads its runs over Options.Workers.
type Figures struct {
	o      *Options
	tables map[int]*Workload
	memo   map[runKey]runSet
}

type runKey struct {
	table    int
	spec     string
	headroom headroomUse
}

// NewFigures validates opts (nil meaning the paper's full-scale setup)
// and returns an empty figure set for it.
func NewFigures(opts *Options) (*Figures, error) {
	o, err := opts.sweepReady()
	if err != nil {
		return nil, err
	}
	return &Figures{
		o: o,
		tables: map[int]*Workload{
			1: {Flows: Table1Flows(), QueueOf: Table1QueueOf()},
			2: {Flows: Table2Flows(), QueueOf: Table2QueueOf()},
		},
		memo: map[runKey]runSet{},
	}, nil
}

// Figure regenerates the figure called id ("fig1" … "fig13"), running
// only the simulations no earlier call has completed. Cancelling ctx
// returns the partial figure — every point summarizes only its completed
// replications, empty points have Summary{} — together with ctx.Err(),
// and remembers none of the interrupted runs.
func (f *Figures) Figure(ctx context.Context, id string) (Figure, error) {
	d := figureByID(id)
	if d == nil {
		return Figure{}, fmt.Errorf("experiment: unknown figure %q", id)
	}
	o := f.o
	ax := f.axis(d)
	key := func(spec string) runKey { return runKey{d.table, spec, d.headroom} }
	ran, err := runSweep(ctx, o, f.tables[d.table], f.missing(d), ax)
	sets := make([]runSet, len(d.specs))
	for si, spec := range d.specs {
		set, ok := f.memo[key(spec)]
		if !ok {
			set, ran = ran[0], ran[1:]
			if err == nil {
				f.memo[key(spec)] = set
			}
		}
		sets[si] = set
	}
	title := strings.NewReplacer("{H}", o.Headroom.String(), "{B}", o.Fig7Buffer.String()).Replace(d.title)
	return Figure{
		ID: d.id, Title: title, XLabel: ax.label, YLabel: d.ylabel,
		Xs: mbAxis(ax.xs), Series: view(d.specs, sets, d.curves, len(ax.xs)),
	}, err
}

// Runs returns how many simulations Figure(ctx, id) would run now, the
// runs of its schemes that no earlier call has completed: the total
// against which a caller counts Options.OnDone calls. An unknown id
// runs none.
func (f *Figures) Runs(id string) int {
	d := figureByID(id)
	if d == nil {
		return 0
	}
	return len(f.missing(d)) * len(f.axis(d).xs) * f.o.Runs
}

func figureByID(id string) *figureDecl {
	for i := range figureTable {
		if figureTable[i].id == id {
			return &figureTable[i]
		}
	}
	return nil
}

// axis is the swept quantity of figure d.
func (f *Figures) axis(d *figureDecl) axis {
	o := f.o
	switch d.headroom {
	case optionHeadroom:
		return bufferAxis(o, o.Headroom)
	case sweepHeadroom:
		return axis{"headroom (MB)", o.Headrooms, func(x units.Bytes) (units.Bytes, units.Bytes) { return o.Fig7Buffer, x }}
	}
	return bufferAxis(o, 0) // noHeadroom
}

// missing returns the schemes of figure d whose runs are not remembered.
func (f *Figures) missing(d *figureDecl) []string {
	var specs []string
	for _, spec := range d.specs {
		if _, ok := f.memo[runKey{d.table, spec, d.headroom}]; !ok {
			specs = append(specs, spec)
		}
	}
	return specs
}
