// Command qcheck regenerates the paper's figures and verifies every
// codified shape claim (see internal/report). It exits non-zero when
// any claim fails — the repository's reproduction regression gate.
//
//	qcheck                 # full scale (5 runs × 20 s, minutes)
//	qcheck -quick          # 1 run × 6 s, 3-point sweeps (seconds)
//
// Figures that view the same runs share them, so each distinct
// simulation runs once. Interrupting qcheck (Ctrl-C) reports the checks
// of the figures already complete and exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"bufqos/internal/cli"
	"bufqos/internal/experiment"
	"bufqos/internal/report"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced-scale sweep for fast feedback")
		runs     = flag.Int("runs", 0, "override replication count")
		duration = flag.Float64("duration", 0, "override simulated seconds")
		listSch  = flag.Bool("list-schemes", false, "print the scheme registry catalogue and exit")
	)
	flag.Parse()

	if *listSch {
		cli.Stdout("catalogue", scheme.WriteCatalogue)
		return
	}

	var opts *experiment.Options
	if *quick {
		opts = &experiment.Options{
			Runs:        1,
			Duration:    6,
			BufferSizes: []units.Bytes{units.KiloBytes(500), units.MegaBytes(1), units.MegaBytes(2)},
			Headrooms:   []units.Bytes{0, units.KiloBytes(150), units.KiloBytes(300)},
			Headroom:    units.KiloBytes(500),
			Fig7Buffer:  units.KiloBytes(250),
		}
		experiment.WithWarmup(0.6)(opts)
		experiment.WithSeed(5)(opts)
	} else {
		// Full scale, but a small-buffer fig7 so the headroom effect is
		// on-scale (see EXPERIMENTS.md).
		opts = experiment.NewOptions(experiment.WithFig7Buffer(units.KiloBytes(300)))
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *duration > 0 {
		opts.Duration = *duration
		experiment.WithWarmup(*duration / 10)(opts)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	results, err := report.Run(ctx, opts, os.Stdout)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "qcheck: %v\n", err)
		os.Exit(2)
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	fmt.Printf("\n%d checks, %d failed\n", len(results), failed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcheck: interrupted; checks of the completed figures above")
		os.Exit(130)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
