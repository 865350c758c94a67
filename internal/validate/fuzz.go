package validate

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bufqos/internal/experiment"
	"bufqos/internal/report"
	"bufqos/internal/sim"
	"bufqos/internal/topology"
)

// Options parameterizes one fuzzing campaign.
type Options struct {
	// Cases is the number of scenarios to generate and check.
	Cases int
	// Seed is the campaign seed; case i derives its own seed via
	// sim.DeriveSeed(Seed, i), so campaigns are reproducible and
	// individual cases can be replayed in isolation.
	Seed int64
	// Duration is the simulated horizon per scenario, in seconds. The
	// generator's timelines assume at least 2 s.
	Duration float64
	// Workers caps the worker pool; 0 means GOMAXPROCS. Results are
	// bit-identical for any value.
	Workers int
	// Oracles filters the oracle library by name; nil/empty runs all.
	Oracles []string
	// ReproDir, when non-empty, receives one shrunk reproducer JSON per
	// failing case, replayable with `qnet -topology <file> -check`.
	ReproDir string
	// ThresholdScale is forwarded to the generator; values below 1
	// produce deliberately broken scenarios (see GenConfig).
	ThresholdScale float64
	// OnDone, when non-nil, is called after each finished case
	// (possibly concurrently) — progress reporting.
	OnDone func(i int)
}

// CaseResult is the outcome of one fuzz case.
type CaseResult struct {
	Index int
	Seed  int64
	Kind  Kind
	Name  string
	// Done distinguishes a finished case from one skipped by
	// cancellation.
	Done bool
	// Checked counts the assertions the selected oracles evaluated.
	Checked int
	// Failures holds the violated assertions, if any.
	Failures []report.Assertion
	// Err records a generation or run error (counts as a failure).
	Err error
	// ReproPath is the shrunk reproducer file, when one was written.
	ReproPath string
	// ShrunkFlows/ShrunkEvents/ShrunkLinks describe the reproducer size.
	ShrunkFlows, ShrunkEvents, ShrunkLinks int
}

// Failed reports whether the case violated any oracle or errored.
func (c *CaseResult) Failed() bool { return c.Err != nil || len(c.Failures) > 0 }

// Summary aggregates a campaign.
type Summary struct {
	Opts  Options
	Cases []CaseResult
}

// Fuzz runs the campaign: for each case it generates a scenario, runs
// it, applies the selected oracles, and — on failure — shrinks the
// scenario and writes a reproducer. Cases fan out over the experiment
// worker pool with pre-assigned result slots, so the summary is
// bit-identical for any worker count. On context cancellation the
// summary covers the cases that finished, and ctx.Err() is returned
// alongside it.
func Fuzz(ctx context.Context, opts Options) (*Summary, error) {
	if opts.Cases <= 0 {
		return nil, fmt.Errorf("validate: non-positive case count %d", opts.Cases)
	}
	if opts.Duration <= 0 {
		opts.Duration = 2
	}
	oracles, err := oraclesByName(opts.Oracles)
	if err != nil {
		return nil, err
	}
	results := make([]CaseResult, opts.Cases)
	runErr := experiment.ForEachJob(ctx, opts.Workers, opts.Cases, nil, opts.OnDone, func(i int) error {
		results[i] = runCase(ctx, i, opts, oracles)
		return ctx.Err()
	})
	sum := &Summary{Opts: opts}
	for i := range results {
		if results[i].Done {
			sum.Cases = append(sum.Cases, results[i])
		}
	}
	if runErr != nil {
		return sum, runErr
	}
	return sum, nil
}

// runCase executes one case end to end.
func runCase(ctx context.Context, i int, opts Options, oracles []Oracle) CaseResult {
	caseSeed := sim.DeriveSeed(opts.Seed, i)
	cr := CaseResult{Index: i, Seed: caseSeed}
	sc, err := Generate(caseSeed, GenConfig{ThresholdScale: opts.ThresholdScale})
	if err != nil {
		cr.Err = err
		cr.Done = ctx.Err() == nil
		return cr
	}
	cr.Kind = sc.Kind
	cr.Name = sc.Topo.Name
	ropts := topology.Options{Duration: opts.Duration, Seed: caseSeed}
	as, err := evaluateScenario(ctx, sc, ropts, oracles)
	if err != nil {
		cr.Err = err
		cr.Done = ctx.Err() == nil
		return cr
	}
	cr.Checked = len(as)
	for _, a := range as {
		if a.Failed() {
			cr.Failures = append(cr.Failures, a)
		}
	}
	if len(cr.Failures) > 0 && opts.ReproDir != "" && ctx.Err() == nil {
		cr.ReproPath, cr.ShrunkFlows, cr.ShrunkEvents, cr.ShrunkLinks =
			writeRepro(ctx, sc, ropts, oracles, cr.Failures, opts.ReproDir)
	}
	cr.Done = ctx.Err() == nil
	return cr
}

// writeRepro shrinks the failing scenario against the oracles that
// flagged it and saves the minimized topology as a replayable JSON.
func writeRepro(ctx context.Context, sc *Scenario, ropts topology.Options,
	oracles []Oracle, failures []report.Assertion, dir string) (path string, flows, events, links int) {
	failing := map[string]bool{}
	for _, a := range failures {
		failing[a.Name] = true
	}
	var subset []Oracle
	var names []string
	for _, o := range oracles {
		if failing[o.Name] {
			subset = append(subset, o)
			names = append(names, o.Name)
		}
	}
	shrunk := Shrink(ctx, sc, ropts, subset)
	t := shrunk.Topo
	t.Name = fmt.Sprintf("repro-%s-seed%d", sc.Kind, sc.Seed)
	t.Description = fmt.Sprintf("shrunk reproducer (kind %s, case seed %d): fails %s; replay with qnet -topology <file> -duration %g -seed %d -check",
		sc.Kind, sc.Seed, strings.Join(names, ", "), ropts.Duration, ropts.Seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", len(t.Flows), len(t.Events), len(t.Links)
	}
	path = filepath.Join(dir, t.Name+".json")
	if err := topology.Save(path, t); err != nil {
		return "", len(t.Flows), len(t.Events), len(t.Links)
	}
	return path, len(t.Flows), len(t.Events), len(t.Links)
}

// oraclesByName resolves a name filter against the library.
func oraclesByName(names []string) ([]Oracle, error) {
	all := Oracles()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]Oracle{}
	for _, o := range all {
		byName[o.Name] = o
	}
	var out []Oracle
	for _, n := range names {
		o, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("validate: unknown oracle %q (have %s)",
				n, strings.Join(OracleNames(), ", "))
		}
		out = append(out, o)
	}
	return out, nil
}

// FailedCases returns the failing cases in index order.
func (s *Summary) FailedCases() []CaseResult {
	var out []CaseResult
	for _, c := range s.Cases {
		if c.Failed() {
			out = append(out, c)
		}
	}
	return out
}

// WriteSummary renders the campaign outcome: per-oracle assertion
// tallies, per-kind case counts, failing cases with their reproducers,
// and a verdict line. Output is deterministic for a deterministic
// campaign.
func WriteSummary(w io.Writer, s *Summary) {
	failed := map[string]int{}
	kinds := map[Kind]int{}
	for _, c := range s.Cases {
		kinds[c.Kind]++
		for _, a := range c.Failures {
			failed[a.Name]++
		}
	}
	totalChecked := 0
	for _, c := range s.Cases {
		totalChecked += c.Checked
	}
	fmt.Fprintf(w, "fuzz: %d cases finished (of %d), seed %d, %gs horizon\n",
		len(s.Cases), s.Opts.Cases, s.Opts.Seed, s.Opts.Duration)
	var kindNames []string
	for k := range kinds {
		kindNames = append(kindNames, string(k))
	}
	sort.Strings(kindNames)
	for _, k := range kindNames {
		fmt.Fprintf(w, "  kind %-18s %4d cases\n", k, kinds[Kind(k)])
	}
	fmt.Fprintf(w, "  assertions checked: %d\n", totalChecked)
	for _, name := range OracleNames() {
		if n := failed[name]; n > 0 {
			fmt.Fprintf(w, "  FAIL %-24s %d assertion(s)\n", name, n)
		}
	}
	fails := s.FailedCases()
	for _, c := range fails {
		if c.Err != nil {
			fmt.Fprintf(w, "  case %d (seed %d): error: %v\n", c.Index, c.Seed, c.Err)
			continue
		}
		first := c.Failures[0]
		fmt.Fprintf(w, "  case %d (seed %d, %s): %d violation(s), first: %s: %s — %v\n",
			c.Index, c.Seed, c.Kind, len(c.Failures), first.Name, first.Detail, first.Err)
		if c.ReproPath != "" {
			fmt.Fprintf(w, "    repro: %s (%d flows, %d links, %d events)\n",
				c.ReproPath, c.ShrunkFlows, c.ShrunkLinks, c.ShrunkEvents)
		}
	}
	if len(fails) == 0 {
		fmt.Fprintf(w, "  all oracles passed\n")
	} else {
		fmt.Fprintf(w, "  %d/%d cases failed\n", len(fails), len(s.Cases))
	}
}
