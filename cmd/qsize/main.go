// Command qsize maps the buffer-sizing plane: n closed-loop TCP flows
// (or an open-loop (σ,ρ) on-off population) share one bottleneck whose
// buffer follows a sizing rule — the classic B = C·RTT, the many-flows
// B = C·RTT/√n, and fractions of either — crossed with the scheme
// registry's buffer managers. Each cell reports utilization, loss, p99
// queueing delay, and Jain fairness of per-flow goodput, reproducing
// the regime where the 1998 rule of thumb gives way to the √n rule and
// showing where per-flow threshold protection stops binding.
//
// Usage:
//
//	qsize                                    # default grid, table on stdout
//	qsize -flows 10,100,1000 -schemes fifo+none,fifo+threshold
//	qsize -flows 100 -rules bdp,bdp/sqrtn -open
//	qsize -out BENCH_sizing.json             # also write the JSON report
//	qsize -check                             # exit 1 if the √n floor fails
//	qsize -md BENCH_sizing.json              # print the EXPERIMENTS.md rows
//
// Reports are bit-identical for a given seed at any -workers count.
// Exit status: 0 (with -check: every √n cell with n ≥ 64 utilized
// ≥ 90%), 1 on a violation, 130 interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"bufqos/internal/cli"
	"bufqos/internal/sizing"
	"bufqos/internal/units"
)

func main() {
	var (
		flows    = flag.String("flows", "", "comma-separated flow counts n (default: the built-in grid)")
		rules    = flag.String("rules", "", "comma-separated sizing rules, e.g. bdp,bdp/2,bdp/sqrtn,bdp/2sqrtn")
		schemes  = flag.String("schemes", "", "comma-separated scheme specs, e.g. fifo+none,fifo+threshold")
		open     = flag.Bool("open", false, "use open-loop (σ,ρ) on-off sources instead of closed-loop TCP")
		rate     = flag.Float64("rate", 100, "bottleneck capacity C in Mb/s")
		rtt      = flag.Float64("rtt", 40, "round-trip propagation time in ms")
		segment  = flag.Int("segment", 1500, "data segment size in bytes")
		duration = flag.Float64("duration", 10, "simulated seconds per cell")
		warmup   = flag.Float64("warmup", 0, "measurement warmup in seconds (0 = duration/4)")
		seed     = flag.Int64("seed", 1, "sweep seed (cell seeds derive from it)")
		workers  = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS; reports are identical)")
		outPath  = flag.String("out", "", "also write the report as JSON to this file")
		check    = flag.Bool("check", false, "exit 1 unless every closed-loop tail-drop bdp/sqrtn cell with n ≥ 64 above the buffer floor is ≥ 90% utilized")
		md       = flag.String("md", "", "print the EXPERIMENTS.md table rows for this report JSON and exit")
	)
	flag.Parse()

	if *md != "" {
		if err := writeMarkdown(*md); err != nil {
			cli.Fatalf("%v", err)
		}
		return
	}

	cfg := sizing.Config{
		LinkRate:    units.MbitsPerSecond(*rate),
		RTT:         *rtt / 1e3,
		SegmentSize: units.Bytes(*segment),
		Duration:    *duration,
		Warmup:      *warmup,
		Seed:        *seed,
		Workers:     *workers,
	}
	custom := *flows != "" || *rules != "" || *schemes != ""
	if custom {
		ns, err := parseFlows(*flows)
		if err != nil {
			cli.Fatalf("-flows: %v", err)
		}
		rs, err := parseRules(*rules)
		if err != nil {
			cli.Fatalf("-rules: %v", err)
		}
		ss := sizing.DefaultSchemes
		if *schemes != "" {
			ss = strings.Split(*schemes, ",")
		}
		cfg.Cells = sizing.Grid(ns, rs, ss, *open)
	} else if *open {
		cli.Fatalf("-open requires a custom grid (set -flows, -rules, or -schemes); the default grid already includes open-loop cells")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := sizing.Sweep(ctx, cfg)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "qsize: interrupted")
		os.Exit(130)
	}
	if err != nil {
		cli.Fatalf("%v", err)
	}
	writeTable(rep)
	if *outPath != "" {
		if err := cli.WriteJSON(*outPath, rep); err != nil {
			cli.Fatalf("%v", err)
		}
	}
	if bad := sqrtViolations(rep); len(bad) > 0 {
		fmt.Printf("%d cell(s) under 90%% utilization at B = C·RTT/√n with n ≥ 64\n", len(bad))
		if *check {
			os.Exit(1)
		}
	} else if *check {
		fmt.Println("√n-regime utilization floor held")
	}
}

// sqrtViolations returns the closed-loop tail-drop bdp/sqrtn cells with
// n ≥ 64 that fall below 90% utilization — the regression -check
// gates. The claim is the literature's: it is about plain drop-tail
// FIFO (schemes that partition the buffer per flow throttle harder at
// tiny B by design) and it presumes the prescribed buffer still holds
// a handful of packets — once C·RTT/√n shrinks under ~8 segments the
// rule has left its validity region (the sweep documents that
// boundary), so such cells are exempt.
func sqrtViolations(rep *sizing.Report) []sizing.Cell {
	var bad []sizing.Cell
	for _, c := range rep.Cells {
		if c.Open || c.Rule != sizing.RuleSqrt.Name || c.Flows < 64 || c.Scheme != "fifo+none" {
			continue
		}
		if c.BufferPkts < 8 {
			continue
		}
		if c.Utilization < 0.90 {
			bad = append(bad, c)
		}
	}
	return bad
}

func writeTable(rep *sizing.Report) {
	fmt.Printf("buffer-sizing sweep: C=%gMb/s RTT=%gms seg=%dB %gs/cell (warmup %gs) seed %d\n",
		rep.LinkRateMbps, rep.RTT*1e3, int64(rep.SegmentSize), rep.Duration, rep.Warmup, rep.Seed)
	fmt.Printf("%-8s %-10s %-16s %-5s %9s %6s %6s %7s %9s %7s %9s\n",
		"n", "rule", "scheme", "loop", "B", "Bpkts", "util", "loss", "p99delay", "fair", "retx")
	for _, c := range rep.Cells {
		loop := "tcp"
		if c.Open {
			loop = "open"
		}
		fmt.Printf("%-8d %-10s %-16s %-5s %9s %6.0f %6.3f %7.4f %8.2fms %7.3f %9d\n",
			c.Flows, c.Rule, c.Scheme, loop, c.Buffer.String(), c.BufferPkts,
			c.Utilization, c.Loss, c.P99DelayMs, c.Fairness, c.Retransmits)
	}
}

// writeMarkdown prints the EXPERIMENTS.md table rows the docs drift
// test pins, rendered from a committed report JSON.
func writeMarkdown(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep sizing.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Println("√n-regime table (closed-loop fifo+none cells):")
	for _, row := range sizing.SqrtRegimeRows(&rep) {
		fmt.Println(row)
	}
	fmt.Println()
	fmt.Println("scheme-ladder table (n=10 at B = C·RTT):")
	for _, row := range sizing.SchemeLadderRows(&rep) {
		fmt.Println(row)
	}
	return nil
}

func parseFlows(s string) ([]int, error) {
	if s == "" {
		return []int{10, 100, 1000, 10000}, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%q is not a positive integer", tok)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseRules(s string) ([]sizing.Rule, error) {
	if s == "" {
		return sizing.DefaultRules, nil
	}
	var out []sizing.Rule
	for _, tok := range strings.Split(s, ",") {
		r, err := sizing.ParseRule(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
