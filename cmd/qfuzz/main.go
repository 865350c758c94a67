// Command qfuzz runs property-based validation campaigns: it generates
// seeded random scenarios (single links, tandem paths, admission
// churn, scheme-registry sweeps, fluid-differential workloads), runs
// each through the multi-hop simulator, and checks the outcomes
// against the paper's invariant oracles (zero conformant loss at the
// Proposition 1/2 thresholds, byte conservation, reserved throughput,
// admission monotonicity, threshold necessity, eq. 17 hybrid savings,
// fluid-vs-packet agreement). Failing scenarios are shrunk to minimal
// reproducer JSON files replayable with `qnet -topology <file> -check`.
//
// Usage:
//
//	qfuzz -n 200 -seed 1
//	qfuzz -n 50 -duration 2s -workers 4 -out testdata/repros
//	qfuzz -n 20 -oracle zero-conformant-loss,conservation
//	qfuzz -n 10 -threshold-scale 0.9 -out /tmp/repros   # must fail
//	qfuzz -list-oracles
//
// Results are bit-identical for a given seed at any -workers count.
// Exit status: 0 all oracles held, 1 violations found, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"bufqos/internal/cli"
	"bufqos/internal/validate"
)

func main() {
	var (
		n           = flag.Int("n", 100, "number of scenarios to generate and check")
		seed        = flag.Int64("seed", 1, "campaign seed (case i uses a seed derived from it)")
		duration    = flag.Duration("duration", 2*time.Second, "simulated horizon per scenario (>= 2s recommended)")
		workers     = flag.Int("workers", 0, "concurrent cases (0 = GOMAXPROCS; results are identical)")
		oracleList  = flag.String("oracle", "", "comma-separated oracle names to run (default: all)")
		outDir      = flag.String("out", "testdata/repros", "directory for shrunk reproducer JSON files ('' disables)")
		scale       = flag.Float64("threshold-scale", 1, "scale Prop 1/2 thresholds by this factor; <1 generates deliberately broken scenarios")
		listOracles = flag.Bool("list-oracles", false, "print the oracle catalogue and exit")
		progress    = flag.Bool("progress", false, "report case progress on stderr")
	)
	flag.Parse()

	if *listOracles {
		for _, o := range validate.Oracles() {
			fmt.Printf("%-24s %s\n%-24s %s\n", o.Name, o.Doc, "", o.Citation)
		}
		return
	}
	if *n <= 0 {
		cli.Fatalf("-n must be positive (got %d)", *n)
	}
	if *duration < 500*time.Millisecond {
		cli.Fatalf("-duration must be at least 500ms (got %v)", *duration)
	}

	opts := validate.Options{
		Cases:          *n,
		Seed:           *seed,
		Duration:       duration.Seconds(),
		Workers:        *workers,
		ReproDir:       *outDir,
		ThresholdScale: *scale,
	}
	if *oracleList != "" {
		opts.Oracles = strings.Split(*oracleList, ",")
	}
	if *progress {
		opts.OnDone = cli.Progress(*n, "cases")
	}

	// Ctrl-C stops cleanly: finished cases are still summarized.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sum, err := validate.Fuzz(ctx, opts)
	if err != nil && !errors.Is(err, context.Canceled) {
		cli.Fatalf("%v", err)
	}
	validate.WriteSummary(os.Stdout, sum)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "qfuzz: interrupted; partial summary above")
		os.Exit(130)
	}
	if len(sum.FailedCases()) > 0 {
		os.Exit(1)
	}
}
