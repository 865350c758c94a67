package experiment

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/legacy_golden.json from the current implementation")

// goldenSpecs are the twelve schemes the golden file pins. The file
// keys results by each spec's display label, so table labels are
// pinned at the same time.
var goldenSpecs = []string{
	"fifo+none", "wfq+none", "fifo+threshold", "wfq+threshold",
	"fifo+sharing", "wfq+sharing", "hybrid+sharing",
	"fifo+dynthresh", "fifo+red", "fifo+adaptive",
	"rpq+threshold", "drr+threshold",
}

// legacyGoldenOptions is the fixed scenario the guard runs every scheme
// under: short enough for the test suite, long enough that every code
// path (thresholds, sharing pools, RED's RNG, hybrid partitioning)
// executes.
func legacyGoldenOptions(spec string) *Options {
	o := &Options{
		Flows:       Table1Flows(),
		SchemeSpec:  spec,
		Buffer:      units.KiloBytes(500),
		Headroom:    units.KiloBytes(250),
		QueueOf:     Table1QueueOf(),
		Duration:    2,
		TrackDelays: true,
	}
	WithWarmup(0.2)(o)
	WithSeed(7)(o)
	return o
}

// goldenResult is Result in a JSON-stable form. encoding/json prints
// float64s with the shortest round-tripping representation, so decoding
// reproduces the exact bits Run produced.
type goldenResult struct {
	AggThroughput  float64   `json:"agg_throughput"`
	Utilization    float64   `json:"utilization"`
	FlowThroughput []float64 `json:"flow_throughput"`
	ConformantLoss float64   `json:"conformant_loss"`
	FlowLoss       []float64 `json:"flow_loss"`
	OfferedRate    []float64 `json:"offered_rate"`
	MaxDelay       float64   `json:"max_delay"`
	MeanDelay      float64   `json:"mean_delay"`
	FlowMaxDelay   []float64 `json:"flow_max_delay"`
}

func toGolden(r Result) goldenResult {
	g := goldenResult{
		AggThroughput:  float64(r.AggThroughput),
		Utilization:    r.Utilization,
		ConformantLoss: r.ConformantLoss,
		FlowLoss:       r.FlowLoss,
		MaxDelay:       r.MaxDelay,
		MeanDelay:      r.MeanDelay,
		FlowMaxDelay:   r.FlowMaxDelay,
	}
	for _, v := range r.FlowThroughput {
		g.FlowThroughput = append(g.FlowThroughput, float64(v))
	}
	for _, v := range r.OfferedRate {
		g.OfferedRate = append(g.OfferedRate, float64(v))
	}
	return g
}

// TestLegacySchemeEquivalence is the refactor guard: for every golden
// spec, Run through the scheme registry must produce bit-identical
// Results to the pre-registry construction switch (captured in
// testdata/legacy_golden.json before that refactor).
// Regenerate with `go test -run LegacySchemeEquivalence -update-golden`
// only when an intentional behaviour change is being made.
func TestLegacySchemeEquivalence(t *testing.T) {
	path := filepath.Join("testdata", "legacy_golden.json")
	got := map[string]goldenResult{}
	for _, spec := range goldenSpecs {
		res, err := Run(context.Background(), legacyGoldenOptions(spec))
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		got[scheme.MustParse(spec).String()] = toGolden(res)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden has %d schemes, goldenSpecs produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scheme %q in golden but not produced (label drift?)", name)
			continue
		}
		compareGolden(t, name, w, g)
	}
}

// readGolden decodes testdata/legacy_golden.json, keyed by label.
func readGolden(t *testing.T) map[string]goldenResult {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_golden.json"))
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestLegacyGoldenHoldsThePaperClaims reads two claims off the twelve
// Table 1 runs at 500 KB that the golden file pins. Every scheduler
// family paired with per-flow thresholds or sharing loses no conformant
// traffic (Props. 1–2), while no buffer management, RED and Dynamic
// Threshold each lose some. TestLegacySchemeEquivalence proves only
// that the file is reproduced; this proves what the file says, so a
// weakened scheme regenerated into it with -update-golden still fails.
func TestLegacyGoldenHoldsThePaperClaims(t *testing.T) {
	golden := readGolden(t)
	for _, spec := range goldenSpecs {
		sc := scheme.MustParse(spec)
		g, ok := golden[sc.String()]
		if !ok {
			t.Errorf("%s: no golden run", spec)
			continue
		}
		switch m := sc.ManagerName(); m {
		case "threshold", "sharing", "adaptive":
			if g.ConformantLoss != 0 {
				t.Errorf("%s: conformant loss %.4g, want 0 (Props. 1–2)", spec, g.ConformantLoss)
			}
		case "none", "red", "dynthresh":
			if g.ConformantLoss <= 0 {
				t.Errorf("%s: no conformant loss; without per-flow protection the aggressors should cost conformant flows", spec)
			}
		default:
			t.Errorf("%s: manager %q belongs to neither claim", spec, m)
		}
	}
}

func compareGolden(t *testing.T, name string, want, got goldenResult) {
	t.Helper()
	eq := func(field string, w, g float64) {
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%s: %s = %v, golden %v (not bit-identical)", name, field, g, w)
		}
	}
	eqs := func(field string, w, g []float64) {
		if len(w) != len(g) {
			t.Errorf("%s: %s has %d entries, golden %d", name, field, len(g), len(w))
			return
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Errorf("%s: %s[%d] = %v, golden %v", name, field, i, g[i], w[i])
			}
		}
	}
	eq("AggThroughput", want.AggThroughput, got.AggThroughput)
	eq("Utilization", want.Utilization, got.Utilization)
	eq("ConformantLoss", want.ConformantLoss, got.ConformantLoss)
	eq("MaxDelay", want.MaxDelay, got.MaxDelay)
	eq("MeanDelay", want.MeanDelay, got.MeanDelay)
	eqs("FlowThroughput", want.FlowThroughput, got.FlowThroughput)
	eqs("FlowLoss", want.FlowLoss, got.FlowLoss)
	eqs("OfferedRate", want.OfferedRate, got.OfferedRate)
	eqs("FlowMaxDelay", want.FlowMaxDelay, got.FlowMaxDelay)
}
