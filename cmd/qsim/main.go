// Command qsim regenerates the paper's simulation figures.
//
// Usage:
//
//	qsim -fig fig1            # one figure, text table to stdout
//	qsim -fig all -csv out/   # everything, CSVs into out/
//	qsim -fig fig4 -runs 3 -duration 10
//	qsim -fig fig1 -progress -metrics metrics.json -pprof localhost:6060
//
// Each figure sweeps the total buffer size (or, for fig7, the headroom)
// across the schemes the paper compares, averaging over independent
// replications and reporting 95% confidence half-widths. Figures that
// plot different quantities of the same experiment (1-3, 4-6, 8-10,
// 11-13) share their runs: each distinct simulation runs once per
// invocation.
//
// Interrupting qsim (Ctrl-C) cancels the in-flight sweep: runs stop
// within about one run's simulated duration, and the partial figure
// (points summarizing only their completed replications) plus the
// -metrics dump are still written before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"bufqos/internal/cli"
	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

func main() {
	var (
		figFlag     = flag.String("fig", "all", "figure id (fig1..fig13), comma list, or 'all'")
		runs        = flag.Int("runs", 5, "independent replications per point")
		duration    = flag.Float64("duration", 20, "simulated seconds per run")
		warmup      = flag.Float64("warmup", 2, "discarded warm-up seconds")
		seed        = flag.Int64("seed", 1, "base random seed")
		headroom    = flag.Float64("headroom", 2, "sharing headroom H in MB")
		buffers     = flag.String("buffers", "", "comma-separated buffer sizes in KB (default 500..5000 step 500)")
		csvDir      = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		fig7buf     = flag.Float64("fig7buffer", 1, "fixed buffer for the fig7 headroom sweep, MB")
		workload    = flag.String("workload", "", "JSON workload file: run a custom buffer sweep instead of the paper figures")
		schemes     = flag.String("schemes", "", "comma list of scheme specs for -workload sweeps, e.g. 'fifo+threshold,wfq+sharing,hybrid:2+sharing' (default: the workload's own schemes, else fifo+threshold,wfq+threshold,fifo+none)")
		listSchemes = flag.Bool("list-schemes", false, "print the scheme registry catalogue and exit")
		workers     = flag.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		metricsOut  = flag.String("metrics", "", "write aggregated metrics as JSON to this file ('-' for stderr) when done")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		showProgres = flag.Bool("progress", false, "report sweep progress (runs done/total, ETA) on stderr")
	)
	flag.Parse()

	if *listSchemes {
		cli.Stdout("catalogue", scheme.WriteCatalogue)
		return
	}
	*workers = cli.Workers(*workers)
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "qsim: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "qsim: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	// Ctrl-C cancels the sweep; partial results and metrics still flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiment.NewOptions(
		experiment.WithRuns(*runs),
		experiment.WithDuration(*duration),
		experiment.WithWarmup(*warmup),
		experiment.WithSeed(*seed),
		experiment.WithHeadroom(units.MegaBytes(*headroom)),
		experiment.WithFig7Buffer(units.MegaBytes(*fig7buf)),
		experiment.WithWorkers(*workers),
	)
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}
	if *buffers != "" {
		sizes, err := parseBuffers(*buffers)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		opts.BufferSizes = sizes
	}

	interrupted := false
	defer func() {
		if reg != nil {
			// Even after an interrupt, so partial sweeps still leave
			// their telemetry behind.
			cli.Report("metrics", *metricsOut, reg.Snapshot().WriteJSON)
		}
		if interrupted {
			fmt.Fprintln(os.Stderr, "qsim: interrupted; partial results written")
			os.Exit(130)
		}
	}()

	if *workload != "" {
		interrupted = runWorkloadSweep(ctx, *workload, *schemes, opts, *csvDir, *showProgres)
		return
	}

	known := experiment.FigureIDs()
	ids := known
	if *figFlag != "all" {
		ids = nil
		for _, id := range strings.Split(*figFlag, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(known, id) {
				cli.Fatalf("unknown figure %q; known: %s", id, strings.Join(known, " "))
			}
			ids = append(ids, id)
		}
	}
	// onDone is the current figure's progress line; Figures keeps a copy
	// of opts, so opts.OnDone forwards to it.
	var onDone func(int)
	if *showProgres {
		opts.OnDone = func(i int) { onDone(i) }
	}
	figs, err := experiment.NewFigures(opts)
	if err != nil {
		cli.Fatalf("%v", err)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			cli.Fatalf("creating %s: %v", *csvDir, err)
		}
	}

	for _, id := range ids {
		if *showProgres {
			onDone = cli.Progress(figs.Runs(id), "runs")
		}
		fig, err := figs.Figure(ctx, id)
		if err != nil && !errors.Is(err, context.Canceled) {
			cli.Fatalf("%s: %v", id, err)
		}
		writeFigure(fig, *csvDir)
		if err != nil {
			interrupted = true
			return
		}
	}
}

// parseBuffers reads the -buffers list: comma-separated sizes in KB.
func parseBuffers(list string) ([]units.Bytes, error) {
	var sizes []units.Bytes
	for _, part := range strings.Split(list, ",") {
		kb, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -buffers entry %q: %v", part, err)
		}
		sizes = append(sizes, units.KiloBytes(kb))
	}
	return sizes, nil
}

// writeFigure emits one figure as a stdout table and, optionally, a CSV
// file. Used for complete and partial (interrupted) figures alike.
func writeFigure(fig experiment.Figure, csvDir string) {
	if err := experiment.WriteTable(os.Stdout, fig); err != nil {
		cli.Fatalf("writing table: %v", err)
	}
	fmt.Println()
	if csvDir != "" {
		path := filepath.Join(csvDir, fig.ID+".csv")
		err := cli.WriteFile(path, func(w io.Writer) error { return experiment.WriteCSV(w, fig) })
		if err != nil {
			cli.Fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

// runWorkloadSweep loads a JSON workload and runs the fig1/fig2-style
// buffer sweep over the requested schemes. It reports whether the sweep
// was interrupted.
func runWorkloadSweep(ctx context.Context, path, schemeList string, opts *experiment.Options, csvDir string, progress bool) bool {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatalf("opening workload: %v", err)
	}
	w, err := experiment.ParseWorkload(f)
	f.Close()
	if err != nil {
		cli.Fatalf("%v", err)
	}
	// An empty -schemes defers to the workload's own scheme list (then
	// the built-in default) inside SweepWorkload.
	var specs []string
	if schemeList != "" {
		for _, name := range strings.Split(schemeList, ",") {
			spec := strings.TrimSpace(name)
			if _, err := experiment.ParseScheme(spec); err != nil {
				cli.Fatalf("%v\navailable specs: %s\n(see -list-schemes for parameters)",
					err, strings.Join(experiment.SchemeSpecs(), ", "))
			}
			specs = append(specs, spec)
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			cli.Fatalf("creating %s: %v", csvDir, err)
		}
	}
	if progress {
		opts.OnDone = cli.Progress(experiment.SweepRuns(w, specs, opts), "runs")
	}
	util, loss, err := experiment.SweepWorkload(ctx, w, specs, opts)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		cli.Fatalf("sweep: %v", err)
	}
	writeFigure(util, csvDir)
	writeFigure(loss, csvDir)
	return interrupted
}
