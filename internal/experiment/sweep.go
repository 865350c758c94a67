package experiment

import (
	"context"
	"fmt"

	"bufqos/internal/scheme"
)

// ParseScheme resolves a scheme name through the registry. It accepts
// both the spec grammar ("fifo+threshold", "hybrid:3+sharing",
// "fifo+red?min=0.2") and the legacy display labels that result tables
// print ("FIFO+thresholds", "WFQ", "FIFO+RED").
func ParseScheme(name string) (*scheme.Scheme, error) {
	return scheme.Parse(name)
}

// SchemeSpecs returns the canonical spec of every registered
// scheduler×manager combination — the data behind -list-schemes.
func SchemeSpecs() []string { return scheme.Specs() }

// specLabel returns the registry display label of a spec; it panics on
// an invalid spec, so it is reserved for specs known to parse (the
// figure table's constants, SweepWorkload's validated list).
func specLabel(spec string) string { return scheme.MustParse(spec).String() }

// SweepWorkload runs the Figure-1/Figure-2 style buffer sweep for an
// arbitrary workload (e.g. one loaded from a JSON file): it returns a
// utilization figure and a conformant-loss figure over opts.BufferSizes
// for the given registry scheme specs, both drawn from one pass of
// runs. Empty specs defaults to the workload's own Schemes list, then to
// the paper's §3.2 comparison. Cancelling ctx returns the partial
// figures computed so far together with ctx.Err().
func SweepWorkload(ctx context.Context, w *Workload, specs []string, opts *Options) (util Figure, loss Figure, err error) {
	o, err := opts.sweepReady()
	if err != nil {
		return Figure{}, Figure{}, err
	}
	specs = sweepSpecs(w, specs)
	// Validate every spec up front: a typo should fail the sweep before
	// any simulation time is spent.
	for _, spec := range specs {
		if _, err := scheme.Parse(spec); err != nil {
			return Figure{}, Figure{}, err
		}
	}
	name := w.Name
	if name == "" {
		name = fmt.Sprintf("%d flows", len(w.Flows))
	}
	ax := bufferAxis(o, o.Headroom)
	sets, err := runSweep(ctx, o, w, specs, ax)
	util = Figure{
		ID: "sweep-util", Title: "Aggregate throughput — " + name,
		XLabel: ax.label, YLabel: "link utilization",
		Xs: mbAxis(ax.xs), Series: view(specs, sets, utilizationCurve, len(ax.xs)),
	}
	loss = Figure{
		ID: "sweep-loss", Title: "Conformant loss — " + name,
		XLabel: ax.label, YLabel: "conformant loss ratio",
		Xs: mbAxis(ax.xs), Series: view(specs, sets, lossCurve, len(ax.xs)),
	}
	return util, loss, err
}

// SweepRuns returns how many simulations SweepWorkload(ctx, w, specs,
// opts) runs, the total against which a caller counts Options.OnDone
// calls (0 for options SweepWorkload refuses).
func SweepRuns(w *Workload, specs []string, opts *Options) int {
	o, err := opts.sweepReady()
	if err != nil {
		return 0
	}
	return len(sweepSpecs(w, specs)) * len(o.BufferSizes) * o.Runs
}

// sweepSpecs resolves SweepWorkload's scheme list: specs, else the
// workload's own, else the paper's §3.2 comparison.
func sweepSpecs(w *Workload, specs []string) []string {
	if len(specs) == 0 {
		specs = w.Schemes
	}
	if len(specs) == 0 {
		specs = []string{"fifo+threshold", "wfq+threshold", "fifo+none"}
	}
	return specs
}
