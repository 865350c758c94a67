package experiment

import (
	"context"
	"fmt"

	"bufqos/internal/scheme"
	"bufqos/internal/units"
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
// an invalid spec, so it is reserved for compile-time-constant specs
// (the figure definitions).
func specLabel(spec string) string { return scheme.MustParse(spec).String() }

// SweepWorkload runs the Figure-1/Figure-2 style buffer sweep for an
// arbitrary workload (e.g. one loaded from a JSON file): it returns a
// utilization figure and a conformant-loss figure over opts.BufferSizes
// for the given registry scheme specs. Empty specs defaults to the
// workload's own Schemes list, then to the paper's §3.2 comparison.
// Cancelling ctx returns the partial figures computed so far together
// with ctx.Err().
func SweepWorkload(ctx context.Context, w *Workload, specs []string, opts *Options) (util Figure, loss Figure, err error) {
	o := opts.sweepReady()
	if len(specs) == 0 {
		specs = w.Schemes
	}
	if len(specs) == 0 {
		specs = []string{"fifo+threshold", "wfq+threshold", "fifo+none"}
	}
	// Validate every spec up front: a typo should fail the sweep before
	// any simulation time is spent.
	labels := make([]string, len(specs))
	for i, spec := range specs {
		parsed, err := scheme.Parse(spec)
		if err != nil {
			return Figure{}, Figure{}, err
		}
		labels[i] = parsed.String()
	}
	mkLines := func(metric func(Result) float64) []line {
		var lines []line
		for i, spec := range specs {
			spec := spec
			lines = append(lines, line{
				label: labels[i],
				cfg: func(x units.Bytes) *Options {
					return &Options{
						Flows:      w.Flows,
						SchemeSpec: spec,
						LinkRate:   w.LinkRate,
						Buffer:     x,
						Headroom:   o.Headroom,
						QueueOf:    w.QueueOf,
					}
				},
				metric: metric,
			})
		}
		return lines
	}
	name := w.Name
	if name == "" {
		name = fmt.Sprintf("%d flows", len(w.Flows))
	}
	us, err := runLines(ctx, o, o.BufferSizes, mkLines(utilization))
	util = Figure{
		ID: "sweep-util", Title: "Aggregate throughput — " + name,
		XLabel: "buffer (MB)", YLabel: "link utilization",
		Xs: mbAxis(o.BufferSizes), Series: us,
	}
	if err != nil {
		return util, Figure{}, err
	}
	ls, err := runLines(ctx, o, o.BufferSizes, mkLines(conformantLoss))
	loss = Figure{
		ID: "sweep-loss", Title: "Conformant loss — " + name,
		XLabel: "buffer (MB)", YLabel: "conformant loss ratio",
		Xs: mbAxis(o.BufferSizes), Series: ls,
	}
	return util, loss, err
}
