// Command qnet runs declarative multi-hop scenarios: a JSON topology
// file names links (each an independent multiplexing point built from a
// scheme-registry spec), flows with explicit routes and (σ, ρ)
// envelopes, and a timeline of events (flow churn, link rate changes,
// failures). Every flow join is gated by admission control at every
// traversed link; after the run, the per-hop guarantees are verified
// (zero conformant loss, reserved throughput end-to-end).
//
// Usage:
//
//	qnet -topology topologies/tandem3.json
//	qnet -topology topologies/churn.json -runs 5 -workers 4 -check
//	qnet -topology topologies/parkinglot.json -csv out/ -metrics m.json
//	qnet -gen "random?links=1000,flows=100000" -shards 8
//	qnet -list-schemes
//
// Results are bit-identical for a given seed at any -workers count and
// any -shards count. Wall-clock throughput and the sharding speed-up are
// measured by the repository's benchmark, `go run ./bench`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"bufqos/internal/cli"
	"bufqos/internal/metrics"
	"bufqos/internal/report"
	"bufqos/internal/scheme"
	"bufqos/internal/topology"
)

// skipLinkFlowsAbove is the links×flows product beyond which qnet drops
// the per-link per-flow result tables (topology.Options.SkipLinkFlows):
// at 4M entries the tables alone would cost hundreds of megabytes.
const skipLinkFlowsAbove = 4 << 20

func main() {
	var (
		topoPath    = flag.String("topology", "", "JSON scenario file (required unless -gen)")
		genSpec     = flag.String("gen", "", "generate a synthetic scenario instead, e.g. 'random?links=1000,flows=100000,seed=1'")
		duration    = flag.Float64("duration", 10, "simulated seconds per run")
		runs        = flag.Int("runs", 1, "independent replications (run r uses seed+r)")
		seed        = flag.Int64("seed", 1, "base random seed")
		workers     = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		shards      = flag.Int("shards", 1, "event kernels per run, synchronized conservatively; results are identical at any count")
		csvDir      = flag.String("csv", "", "directory for per-flow and per-link CSV files (optional)")
		metricsOut  = flag.String("metrics", "", "write aggregated metrics as JSON to this file ('-' for stderr) when done")
		checkFlag   = flag.Bool("check", false, "verify the composed QoS guarantees and exit 1 on any violation")
		listSchemes = flag.Bool("list-schemes", false, "print the scheme registry catalogue and exit")
		showProgres = flag.Bool("progress", false, "report run progress on stderr")
		pprofOut    = flag.String("pprof", "", "write a CPU profile of the runs to this file")
	)
	flag.Parse()

	if *listSchemes {
		cli.Stdout("catalogue", scheme.WriteCatalogue)
		return
	}
	if (*topoPath == "") == (*genSpec == "") {
		cli.Fatalf("exactly one of -topology or -gen is required (or -list-schemes)")
	}
	if *shards < 0 {
		cli.Fatalf("-shards must be >= 0 (got %d)", *shards)
	}
	*workers = cli.Workers(*workers)

	var topo *topology.Topology
	var err error
	if *genSpec != "" {
		topo, err = topology.Generate(*genSpec)
	} else {
		topo, err = topology.Load(*topoPath)
	}
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if topo.Description != "" {
		fmt.Fprintf(os.Stderr, "qnet: %s: %s\n", topo.Name, topo.Description)
	}

	opts := topology.Options{Duration: *duration, Seed: *seed, Shards: *shards}
	if len(topo.Links)*len(topo.Flows) > skipLinkFlowsAbove {
		fmt.Fprintf(os.Stderr, "qnet: %d links x %d flows: keeping link totals only (per-flow link tables skipped)\n",
			len(topo.Links), len(topo.Flows))
		opts.SkipLinkFlows = true
	}

	// Ctrl-C cancels between chunks of simulated time.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	defer cli.CPUProfile(*pprofOut)()

	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}
	var onDone func(int)
	if *showProgres {
		onDone = cli.Progress(*runs, "runs")
	}

	results, err := topology.RunMany(ctx, topo, opts, *runs, *workers, onDone)
	if reg != nil {
		// Before the error check: an interrupted run keeps its telemetry.
		cli.Report("metrics", *metricsOut, reg.Snapshot().WriteJSON)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "qnet: interrupted")
			os.Exit(130)
		}
		cli.Fatalf("%v", err)
	}

	if err := topology.WriteFlowTable(os.Stdout, topo, results); err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Println()
	if err := topology.WriteLinkTable(os.Stdout, topo, results); err != nil {
		cli.Fatalf("%v", err)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			cli.Fatalf("creating %s: %v", *csvDir, err)
		}
		base := *genSpec
		if base == "" {
			base = strings.TrimSuffix(filepath.Base(*topoPath), filepath.Ext(*topoPath))
		} else {
			base = strings.NewReplacer("?", "_", "=", "-", ",", "_").Replace(base)
		}
		writeCSV(filepath.Join(*csvDir, base+"_flows.csv"), func(w io.Writer) error {
			return topology.WriteFlowCSV(w, topo, results)
		})
		writeCSV(filepath.Join(*csvDir, base+"_links.csv"), func(w io.Writer) error {
			return topology.WriteLinkCSV(w, topo, results)
		})
	}

	if *checkFlag {
		fmt.Println()
		as := topology.VerifyMany(topo, results)
		if failed := report.WriteAssertions(os.Stdout, as); failed > 0 {
			cli.Fatalf("%d of %d assertions failed", failed, len(as))
		}
		fmt.Printf("all %d assertions passed\n", len(as))
	}
}

func writeCSV(path string, write func(io.Writer) error) {
	if err := cli.WriteFile(path, write); err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
