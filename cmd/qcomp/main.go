// Command qcomp measures empirical competitive ratios: it sweeps the
// policy registry of internal/online (value-aware greedy,
// class-segregated preemption, the multi-queue LQF family — each the
// internal/buffer policy the simulator runs, driven in unit steps)
// against adversarial arrival generators (the papers' lower-bound
// constructions, seeded random bursts, adaptive hill-climbing) and
// compares each run to the exact offline optimum computed by the
// min-cost max-flow solver. Cells report mean and worst OPT/ALG next
// to the proven bound from the literature.
//
// Usage:
//
//	qcomp                                    # full sweep, table on stdout
//	qcomp -policies lqf,semigreedy -buffers 1,2,4,8
//	qcomp -n 20 -seed 7 -workers 4 -out BENCH_competitive.json
//	qcomp -check                             # exit 1 on any bound violation
//	qcomp -replay repro.json                 # re-evaluate a saved instance
//	qcomp -list                              # policy and adversary catalogues
//
// Reports are bit-identical for a given seed at any -workers count.
// Exit status: 0 (with -check: all bounds held), 1 violations found,
// 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"bufqos/internal/cli"
	"bufqos/internal/online"
	"bufqos/internal/validate"
)

func main() {
	var (
		policies    = flag.String("policies", "", "comma-separated policy names (default: all)")
		adversaries = flag.String("adversaries", "", "comma-separated adversary names (default: all)")
		queues      = flag.Int("queues", 3, "queue (multiqueue) / class (shared) count m")
		buffers     = flag.String("buffers", "1,2,4", "comma-separated buffer sizes to sweep")
		reps        = flag.Int("n", 5, "seeded replications per randomized cell")
		seed        = flag.Int64("seed", 1, "campaign seed (cell replication seeds derive from it)")
		eps         = flag.Float64("eps", 1e-9, "tolerance above a proven bound before counting a violation")
		workers     = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS; reports are identical)")
		outPath     = flag.String("out", "", "also write the report as JSON to this file")
		check       = flag.Bool("check", false, "exit 1 if any bounded policy exceeds its proven ratio")
		replayPath  = flag.String("replay", "", "re-evaluate a saved instance file instead of sweeping")
		list        = flag.Bool("list", false, "print the policy and adversary catalogues and exit")
	)
	flag.Parse()

	if *list {
		listCatalogues()
		return
	}
	if *replayPath != "" {
		if err := replay(*replayPath, *policies); err != nil {
			cli.Fatalf("%v", err)
		}
		return
	}

	opts := validate.CompeteOptions{
		Queues:  *queues,
		Reps:    *reps,
		Seed:    *seed,
		Eps:     *eps,
		Workers: *workers,
	}
	if *policies != "" {
		opts.Policies = strings.Split(*policies, ",")
	}
	if *adversaries != "" {
		opts.Adversaries = strings.Split(*adversaries, ",")
	}
	var err error
	if opts.Buffers, err = parseInts(*buffers); err != nil {
		cli.Fatalf("-buffers: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := validate.Compete(ctx, opts)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "qcomp: interrupted")
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
	if v := rep.Violations(); len(v) > 0 {
		fmt.Printf("%d cell(s) violate their proven bound\n", len(v))
		if *check {
			os.Exit(1)
		}
	} else if *check {
		fmt.Println("all proven bounds held")
	}
}

// replay loads one saved instance (written by Instance.Write or by
// hand) and evaluates every compatible policy on it.
func replay(path, policyFilter string) error {
	in, err := online.LoadInstance(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: model %s, m=%d, B=%d, %d arrivals (total value %g)\n",
		path, in.Model, in.Queues, in.Buffer, len(in.Arrivals), in.TotalValue())
	opt, err := online.Opt(in)
	if err != nil {
		return err
	}
	fmt.Printf("  OPT = %g\n", opt)
	selected := map[string]bool{}
	for _, name := range strings.Split(policyFilter, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}
	ran := 0
	for _, p := range online.Policies() {
		if p.Model != in.Model || (len(selected) > 0 && !selected[p.Name]) {
			continue
		}
		out, err := online.Evaluate(p, in)
		if err != nil {
			return err
		}
		verdict := ""
		if p.Bound > 0 && out.Ratio > p.Bound+1e-9 {
			verdict = "  VIOLATES bound " + strconv.FormatFloat(p.Bound, 'g', -1, 64)
		}
		fmt.Printf("  %-12s ALG = %-8g ratio = %-8.6g%s\n", p.Name, out.ALG, out.Ratio, verdict)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no selected policy matches the instance's %s model", in.Model)
	}
	return nil
}

func listCatalogues() {
	fmt.Println("policies:")
	for _, p := range online.Policies() {
		bound := "unbounded"
		if p.Bound > 0 {
			bound = strconv.FormatFloat(p.Bound, 'g', -1, 64) + "-competitive"
		}
		fmt.Printf("  %-12s %-12s %-16s %s\n  %-12s %s\n", p.Name, p.Model, bound, p.Doc, "", p.Cite)
	}
	fmt.Println("adversaries:")
	for _, a := range validate.Adversaries() {
		model := "any model"
		if a.Model != "" {
			model = string(a.Model)
		}
		fmt.Printf("  %-14s %-12s %s\n  %-14s %s\n", a.Name, model, a.Doc, "", a.Cite)
	}
}

// writeTable renders the report as a fixed-width table, worst cells
// last so they end up next to the verdict line.
func writeTable(rep *validate.CompeteReport) {
	fmt.Printf("competitive sweep: seed %d, m=%d, %d reps, eps %g\n",
		rep.Seed, rep.Queues, rep.Reps, rep.Eps)
	fmt.Printf("%-12s %-14s %-11s %3s %4s %7s %9s %9s %10s\n",
		"policy", "adversary", "model", "B", "reps", "bound", "mean", "max", "violations")
	for _, c := range rep.Cells {
		bound := "—"
		if c.Bound > 0 {
			bound = strconv.FormatFloat(c.Bound, 'g', -1, 64)
		}
		fmt.Printf("%-12s %-14s %-11s %3d %4d %7s %9.4f %9.4f %10d\n",
			c.Policy, c.Adversary, c.Model, c.Buffer, c.Reps, bound, c.MeanRatio, c.MaxRatio, c.Violations)
	}
}

func parseInts(s string) ([]int, error) {
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
