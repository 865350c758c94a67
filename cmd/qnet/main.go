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
//	qnet -gen "random?links=1000,flows=100000" -shards 8 -events-per-sec
//	qnet -gen "fattree?flows=512" -bench-json BENCH_topology.json
//	qnet -list-schemes
//
// Results are bit-identical for a given seed at any -workers count and
// any -shards count.
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
	"reflect"
	"runtime"
	"strings"
	"time"

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
		showRate    = flag.Bool("events-per-sec", false, "report total kernel events and wall-clock throughput on stderr")
		benchJSON   = flag.String("bench-json", "", "sweep shard counts 1/2/4/8, check bit-identity, write an events/sec benchmark JSON to this file, and exit")
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

	if *benchJSON != "" {
		if err := runBench(ctx, topo, opts, *benchJSON); err != nil {
			cli.Fatalf("%v", err)
		}
		return
	}

	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}
	var onDone func(int)
	if *showProgres {
		onDone = cli.Progress(*runs, "runs")
	}

	start := time.Now()
	results, err := topology.RunMany(ctx, topo, opts, *runs, *workers, onDone)
	wall := time.Since(start)
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
	if *showRate {
		var events uint64
		for i := range results {
			events += results[i].Events
		}
		fmt.Fprintf(os.Stderr, "qnet: %d events in %v (%.4g events/sec, %d shards)\n",
			events, wall.Round(time.Millisecond), float64(events)/wall.Seconds(), *shards)
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

// benchRun is one row of the -bench-json report.
type benchRun struct {
	Shards       int     `json:"shards"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	Speedup      float64 `json:"speedup"`
}

// benchReport is the -bench-json output: one scenario swept over shard
// counts, with bit-identity against the single-shard run asserted.
// HostCores records the machine the numbers were taken on — a speedup
// near 1.0 on a single-core host is the expected honest result, not a
// failure of the engine.
type benchReport struct {
	Topology  string     `json:"topology"`
	Links     int        `json:"links"`
	Flows     int        `json:"flows"`
	Duration  float64    `json:"duration"`
	Seed      int64      `json:"seed"`
	HostCores int        `json:"host_cores"`
	Identical bool       `json:"identical"`
	Runs      []benchRun `json:"runs"`
}

// runBench sweeps shard counts 1, 2, 4, 8 over one run of the scenario,
// verifies every sharded Result is bit-identical to the single-shard
// one, and writes the wall-clock numbers as JSON.
func runBench(ctx context.Context, topo *topology.Topology, opts topology.Options, path string) error {
	rep := benchReport{
		Topology:  topo.Name,
		Links:     len(topo.Links),
		Flows:     len(topo.Flows),
		Duration:  opts.Duration,
		Seed:      opts.Seed,
		HostCores: runtime.NumCPU(),
		Identical: true,
	}
	var base topology.Result
	var baseWall float64
	for _, shards := range []int{1, 2, 4, 8} {
		o := opts
		o.Shards = shards
		start := time.Now()
		res, err := topology.Run(ctx, topo, o)
		wall := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("bench shards=%d: %w", shards, err)
		}
		if shards == 1 {
			base, baseWall = res, wall
		} else if !reflect.DeepEqual(base, res) {
			rep.Identical = false
		}
		rep.Runs = append(rep.Runs, benchRun{
			Shards:       shards,
			Events:       res.Events,
			WallSeconds:  wall,
			EventsPerSec: float64(res.Events) / wall,
			Speedup:      baseWall / wall,
		})
		fmt.Fprintf(os.Stderr, "qnet: bench shards=%d: %d events in %.3fs (%.4g events/sec)\n",
			shards, res.Events, wall, float64(res.Events)/wall)
	}
	if !rep.Identical {
		return fmt.Errorf("bench: sharded results diverge from shards=1 — determinism bug")
	}
	if err := cli.WriteJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qnet: benchmark written to %s\n", path)
	return nil
}

func writeCSV(path string, write func(io.Writer) error) {
	if err := cli.WriteFile(path, write); err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
