package validate

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bufqos/internal/sim"
	"bufqos/internal/topology"
)

// TestGenerateValid: every seed must yield a scenario that passes
// topology.Validate — a generator error is a bug by construction.
func TestGenerateValid(t *testing.T) {
	kinds := map[Kind]int{}
	for seed := int64(0); seed < 300; seed++ {
		sc, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kinds[sc.Kind]++
	}
	for _, k := range []Kind{KindSingleLink, KindDifferential, KindTandem, KindChurn, KindTCP, KindRegistry} {
		if kinds[k] == 0 {
			t.Errorf("300 seeds never produced kind %s (got %v)", k, kinds)
		}
	}
}

// TestGenerateDeterministic: the same seed yields the same scenario.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(42, GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(42, GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := topology.Write(&ab, a.Topo); err != nil {
		t.Fatal(err)
	}
	if err := topology.Write(&bb, b.Topo); err != nil {
		t.Fatal(err)
	}
	if ab.String() != bb.String() {
		t.Error("two Generate(42) calls produced different topologies")
	}
}

// TestFuzzWorkerDeterminism: the summary must be bit-identical for any
// worker count (pre-assigned result slots, per-case derived seeds).
func TestFuzzWorkerDeterminism(t *testing.T) {
	render := func(workers int) string {
		sum, err := Fuzz(context.Background(), Options{Cases: 8, Seed: 3, Duration: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		WriteSummary(&buf, sum)
		return buf.String()
	}
	w1 := render(1)
	w4 := render(4)
	if w1 != w4 {
		t.Errorf("summaries differ between 1 and 4 workers:\n--- w1 ---\n%s--- w4 ---\n%s", w1, w4)
	}
	if !strings.Contains(w1, "all oracles passed") {
		t.Errorf("healthy campaign reported failures:\n%s", w1)
	}
}

// TestFuzzBrokenThreshold: under-scaling the Proposition 1/2 thresholds
// must be caught by the zero-conformant-loss oracle, the failure must
// shrink to a reproducer file, and replaying that file through the
// topology engine must still fail verification.
func TestFuzzBrokenThreshold(t *testing.T) {
	dir := t.TempDir()
	sum, err := Fuzz(context.Background(), Options{
		Cases: 2, Seed: 1, Duration: 2, ThresholdScale: 0.9, ReproDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	fails := sum.FailedCases()
	if len(fails) != 2 {
		t.Fatalf("want both broken cases to fail, got %d of 2", len(fails))
	}
	for _, c := range fails {
		if c.Kind != KindBroken {
			t.Errorf("case %d: kind %s, want %s", c.Index, c.Kind, KindBroken)
		}
		seen := false
		for _, a := range c.Failures {
			if a.Name == "zero-conformant-loss" {
				seen = true
			}
		}
		if !seen {
			t.Errorf("case %d: no zero-conformant-loss violation in %v", c.Index, c.Failures)
		}
		if c.ReproPath == "" {
			t.Fatalf("case %d: no reproducer written", c.Index)
		}
		if c.ShrunkFlows > 3 {
			t.Errorf("case %d: shrink left %d flows, want <= 3", c.Index, c.ShrunkFlows)
		}

		// Replay: the shrunk file must load, run, and fail Verify —
		// exactly what `qnet -topology <repro> -check` does.
		topo, err := topology.Load(c.ReproPath)
		if err != nil {
			t.Fatalf("loading repro %s: %v", c.ReproPath, err)
		}
		res, err := topology.Run(context.Background(), topo, topology.Options{Duration: 2, Seed: c.Seed})
		if err != nil {
			t.Fatalf("replaying repro %s: %v", c.ReproPath, err)
		}
		failed := 0
		for _, a := range topology.Verify(topo, &res) {
			if a.Failed() {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("repro %s passes topology.Verify on replay; want a failure", c.ReproPath)
		}
	}
	// The repro directory holds exactly the advertised files.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("repro dir has %d files, want 2", len(ents))
	}
}

// TestReproducersReplayExactly: a reproducer file replays the scenario
// that failed. Every scenario of campaign seed 1's first 1,000 cases
// parses back from its own Write output as the same scenario.
func TestReproducersReplayExactly(t *testing.T) {
	for i := 0; i < 1000; i++ {
		sc, err := Generate(sim.DeriveSeed(1, i), GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := topology.Write(&buf, sc.Topo); err != nil {
			t.Fatal(err)
		}
		back, err := topology.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, sc.Topo) {
			t.Errorf("case %d (%s): the written scenario parses back as a different one", i, sc.Topo.Name)
		}
	}
}

// TestTCPFamilyGoodputOracle: generated closed-loop scenarios must
// admit every flow and clear the goodput floor on guaranteed routes.
func TestTCPFamilyGoodputOracle(t *testing.T) {
	var oracle Oracle
	for _, o := range Oracles() {
		if o.Name == "tcp-goodput-floor" {
			oracle = o
		}
	}
	if oracle.Check == nil {
		t.Fatal("tcp-goodput-floor missing from the oracle catalogue")
	}
	checked := 0
	for seed := int64(0); seed < 60 && checked < 3; seed++ {
		sc, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Kind != KindTCP {
			continue
		}
		checked++
		opts := topology.Options{Duration: 2, Seed: seed}
		res, err := topology.Run(context.Background(), sc.Topo, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for fi := range res.Flows {
			if !res.Flows[fi].Admitted {
				t.Errorf("seed %d: flow %s rejected; the tcp family must stay inside the admission region",
					seed, sc.Topo.Flows[fi].Name)
			}
		}
		as := oracle.Check(context.Background(), &Case{Scenario: sc, Opts: opts, Result: &res})
		if len(as) != len(sc.Topo.Flows) {
			t.Errorf("seed %d: %d goodput assertions for %d tcp flows", seed, len(as), len(sc.Topo.Flows))
		}
		for _, a := range as {
			if a.Err != nil {
				t.Errorf("seed %d: %s: %v", seed, a.Detail, a.Err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("60 seeds never produced a tcp scenario")
	}
}

// TestFuzzOracleFilter: unknown names are rejected, known names select
// a subset.
func TestFuzzOracleFilter(t *testing.T) {
	if _, err := Fuzz(context.Background(), Options{Cases: 1, Seed: 1, Oracles: []string{"nope"}}); err == nil {
		t.Error("unknown oracle name accepted")
	}
	sum, err := Fuzz(context.Background(), Options{
		Cases: 2, Seed: 1, Duration: 2, Oracles: []string{"conservation"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.FailedCases()) != 0 {
		t.Errorf("conservation-only campaign failed: %+v", sum.FailedCases())
	}
}

// TestShrinkKeepsFailure: shrinking a failing broken-threshold scenario
// preserves the failure and never grows the scenario.
func TestShrinkKeepsFailure(t *testing.T) {
	sc, err := Generate(11, GenConfig{ThresholdScale: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	opts := topology.Options{Duration: 2, Seed: 11}
	all := Oracles()
	as, err := evaluateScenario(context.Background(), sc, opts, all)
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(as) {
		t.Fatal("broken scenario did not fail; cannot test shrinking")
	}
	shrunk := Shrink(context.Background(), sc, opts, all)
	if len(shrunk.Topo.Flows) > len(sc.Topo.Flows) {
		t.Error("shrink grew the flow set")
	}
	as2, err := evaluateScenario(context.Background(), shrunk, opts, all)
	if err != nil {
		t.Fatal(err)
	}
	if !anyFailed(as2) {
		t.Error("shrunk scenario no longer fails")
	}
}

// TestReproFilenameStable pins the reproducer naming scheme that the
// docs reference.
func TestReproFilenameStable(t *testing.T) {
	dir := t.TempDir()
	sum, err := Fuzz(context.Background(), Options{
		Cases: 1, Seed: 1, Duration: 2, ThresholdScale: 0.9, ReproDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cases) != 1 || sum.Cases[0].ReproPath == "" {
		t.Fatal("expected one failing case with a repro")
	}
	base := filepath.Base(sum.Cases[0].ReproPath)
	if !strings.HasPrefix(base, "repro-broken-threshold-seed") || !strings.HasSuffix(base, ".json") {
		t.Errorf("unexpected repro filename %q", base)
	}
}
