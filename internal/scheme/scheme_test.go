package scheme

import (
	"strings"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// testConfig is a small but complete link environment: three flows,
// a queue map for hybrid, and a clock for time-stamping schedulers.
func testConfig() Config {
	mk := func(peak, tok, bucketKB float64) packet.FlowSpec {
		return packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(peak),
			TokenRate:  units.MbitsPerSecond(tok),
			BucketSize: units.KiloBytes(bucketKB),
		}
	}
	return Config{
		Specs:    []packet.FlowSpec{mk(16, 2, 50), mk(40, 8, 100), mk(40, 2, 50)},
		LinkRate: units.MbitsPerSecond(48),
		Buffer:   units.KiloBytes(500),
		Headroom: units.KiloBytes(100),
		QueueOf:  []int{0, 1, 1},
		Now:      func() float64 { return 0 },
		Seed:     1,
	}
}

// TestSpecRoundTrip: every registered combination's canonical spec
// parses back to the same canonical spec, display label, and a working
// builder.
func TestSpecRoundTrip(t *testing.T) {
	cfg := testConfig()
	for _, spec := range Specs() {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.Spec(); got != spec {
			t.Errorf("Parse(%q).Spec() = %q, not canonical", spec, got)
		}
		s2, err := Parse(s.Spec())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s.Spec(), err)
		}
		if s2.Spec() != s.Spec() || s2.String() != s.String() {
			t.Errorf("round trip of %q drifted: %q/%q vs %q/%q", spec, s2.Spec(), s2.String(), s.Spec(), s.String())
		}
		mgr, sc, err := s.Build(cfg)
		if err != nil {
			t.Errorf("Build(%q): %v", spec, err)
			continue
		}
		if mgr == nil || sc == nil {
			t.Errorf("Build(%q) returned nil component", spec)
		}
	}
}

// TestParamRoundTrip: non-default parameters survive the canonical
// form; default-valued explicit parameters normalize away.
func TestParamRoundTrip(t *testing.T) {
	cases := []struct{ in, spec, display string }{
		{"fifo+dynthresh?alpha=2", "fifo+dynthresh?alpha=2", "FIFO+dynthresh?alpha=2"},
		{"fifo+dynthresh?alpha=1", "fifo+dynthresh", "FIFO+dynthresh"},
		{"FIFO+RED?max=0.8,min=0.2", "fifo+red?max=0.8,min=0.2", "FIFO+RED?max=0.8,min=0.2"},
		{"rpq+threshold?classes=6,interval=0.001", "rpq+threshold?classes=6,interval=0.001", "RPQ+thresholds?classes=6,interval=0.001"},
		{"hybrid:3+sharing", "hybrid:3+sharing", "hybrid:3+sharing"},
		{"wfq", "wfq+none", "WFQ"},
		{"sharing", "fifo+sharing", "FIFO+sharing"},
		{"fifo+adaptive?fraction=0.5", "fifo+adaptive?fraction=0.5", "FIFO+adaptive-sharing?fraction=0.5"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if s.Spec() != c.spec {
			t.Errorf("Parse(%q).Spec() = %q, want %q", c.in, s.Spec(), c.spec)
		}
		if s.String() != c.display {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, s.String(), c.display)
		}
	}
}

// TestLegacyLabelsParse: the display labels that predate the registry
// must keep parsing (result tables and qsim -schemes use them) and must
// render the identical label back.
func TestLegacyLabelsParse(t *testing.T) {
	labels := []string{
		"FIFO", "WFQ", "FIFO+thresholds", "WFQ+thresholds",
		"FIFO+sharing", "WFQ+sharing", "hybrid+sharing",
		"FIFO+dynthresh", "FIFO+RED", "FIFO+adaptive-sharing",
		"RPQ+thresholds", "DRR+thresholds",
	}
	for _, l := range labels {
		s, err := Parse(l)
		if err != nil {
			t.Errorf("legacy label %q no longer parses: %v", l, err)
			continue
		}
		if s.String() != l {
			t.Errorf("Parse(%q).String() = %q; table labels must stay stable", l, s.String())
		}
	}
}

// TestMalformedSpecs: the error paths the registry must reject.
func TestMalformedSpecs(t *testing.T) {
	bad := []string{
		"",
		"fifo+",
		"+threshold",
		"fifo+threshold+sharing",
		"hybrid:0+sharing",
		"hybrid:-1+sharing",
		"hybrid:x+sharing",
		"fifo:3+threshold",       // fifo takes no queue count
		"hybrid+red",             // non-partitionable manager
		"bogus+threshold",        // unknown scheduler
		"fifo+bogus",             // unknown manager
		"fifo+red?zorp=1",        // unknown parameter
		"fifo+red?",              // empty parameter list
		"fifo+red?min",           // not key=value
		"fifo+red?min=x",         // not a number
		"fifo+red?min=1,min=2",   // duplicate key
		"fifo+threshold?alpha=1", // parameter of another manager
	}
	for _, spec := range bad {
		if s, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %v, want error", spec, s.Spec())
		}
	}
}

// badParamSpecs carry a parameter value outside its declared range:
// non-finite values, negative headrooms and out-of-range fractions that
// once reached a buffer constructor's panic or ran silently, and class
// counts that would size an allocation without limit. The value is
// never built. Each maps to the parameter its error must name.
var badParamSpecs = map[string]string{
	"fifo+threshold?scale=NaN":     "scale",
	"fifo+threshold?scale=0":       "scale",
	"fifo+threshold?scale=1.5":     "scale",
	"fifo+sharing?headroom=NaN":    "headroom",
	"fifo+sharing?headroom=Inf":    "headroom",
	"fifo+sharing?headroom=-1":     "headroom",
	"wfq+sharing?headroom=-1":      "headroom",
	"fifo+adaptive?headroom=-0.1":  "headroom",
	"hybrid+sharing?headroom=-0.2": "headroom",
	"fifo+adaptive?fraction=NaN":   "fraction",
	"fifo+adaptive?fraction=2":     "fraction",
	"fifo+red?min=NaN":             "min",
	"fifo+red?maxp=NaN":            "maxp",
	"fifo+red?maxp=0":              "maxp",
	"fifo+red?maxp=1.5":            "maxp",
	"fifo+red?wq=NaN":              "wq",
	"fifo+red?wq=0":                "wq",
	"fifo+dynthresh?alpha=NaN":     "alpha",
	"fifo+dynthresh?alpha=Inf":     "alpha",
	"fifo+dynthresh?alpha=-Inf":    "alpha",
	"fifo+dynthresh?alpha=0":       "alpha",
	"fifo+dynthresh?alpha=-1":      "alpha",
	"pushout+none?share=NaN":       "share",
	"pushout+none?share=-1":        "share",
	"rpq+threshold?classes=1e9":    "classes",
	"rpq+threshold?classes=0":      "classes",
	"rpq+threshold?classes=2.5":    "classes",
	"rpq+threshold?interval=0":     "interval",
	"rpq+threshold?interval=NaN":   "interval",
	"cgreedy?classes=1e9":          "classes",
	"classseg?classes=65":          "classes",
	"lqf?classes=0":                "classes",
	"semigreedy?classes=-Inf":      "classes",
}

// TestInvalidParamValues: Parse refuses every value outside its
// parameter's declared range, naming the parameter, so no builder, and
// no topology or CLI that parses a spec, meets one. Only the one
// relation between two parameters, RED's min < max, is Build's.
func TestInvalidParamValues(t *testing.T) {
	for spec, param := range badParamSpecs {
		s, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) = %s, want an error", spec, s.Spec())
			continue
		}
		if !strings.Contains(err.Error(), "parameter "+param+"=") {
			t.Errorf("Parse(%q): %v, want the error to name %s", spec, err, param)
		}
	}
	s, err := Parse("fifo+red?min=0.9,max=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Build(testConfig()); err == nil {
		t.Error("Build accepted RED with min above max")
	}
}

// TestParamDefaultsInRange: every declared default is a value its own
// range accepts, so a spec that omits a parameter builds as one that
// names it.
func TestParamDefaultsInRange(t *testing.T) {
	check := func(kind, name string, params []ParamDef) {
		for _, p := range params {
			if err := p.check(p.Default); err != nil {
				t.Errorf("%s %s: default: %v", kind, name, err)
			}
		}
	}
	for _, d := range schedulers {
		check("scheduler", d.name, d.params)
	}
	for _, d := range managers {
		check("manager", d.name, d.params)
	}
}

// TestHybridBuildValidation: hybrid needs a queue map and respects an
// explicit queue count.
func TestHybridBuildValidation(t *testing.T) {
	cfg := testConfig()
	cfg.QueueOf = nil
	if _, _, err := MustParse("hybrid+sharing").Build(cfg); err == nil {
		t.Error("hybrid without QueueOf built")
	}
	cfg = testConfig() // queues {0,1,1} → 2 queues
	if _, _, err := MustParse("hybrid:1+sharing").Build(cfg); err == nil {
		t.Error("hybrid:1 accepted a 2-queue map")
	}
	if _, _, err := MustParse("hybrid:3+sharing").Build(cfg); err == nil {
		t.Error("hybrid:3 accepted a 2-queue map (would create an empty queue)")
	}
	cfg.QueueOf = []int{0, 1, 2}
	mgr, sc, err := MustParse("hybrid:3+sharing").Build(cfg)
	if err != nil {
		t.Fatalf("hybrid:3 over a 3-queue map: %v", err)
	}
	if mgr == nil || sc == nil {
		t.Fatal("nil hybrid components")
	}
}

// TestBuildComponents spot-checks that specs construct the right
// concrete types and thread their parameters through.
func TestBuildComponents(t *testing.T) {
	cfg := testConfig()
	mgr, sc, err := MustParse("wfq+sharing").Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.(*buffer.Sharing); !ok {
		t.Errorf("wfq+sharing built %T manager", mgr)
	}
	if _, ok := sc.(*sched.WFQ); !ok {
		t.Errorf("wfq+sharing built %T scheduler", sc)
	}

	mgr, _, err = MustParse("fifo+red?min=0.2,max=0.8,wq=0.01").Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	red, ok := mgr.(*buffer.RED)
	if !ok {
		t.Fatalf("fifo+red built %T", mgr)
	}
	if red.MinTh != units.Bytes(0.2*float64(cfg.Buffer)) || red.MaxTh != units.Bytes(0.8*float64(cfg.Buffer)) {
		t.Errorf("RED thresholds %v/%v not scaled from fractions", red.MinTh, red.MaxTh)
	}
	if red.Weight != 0.01 {
		t.Errorf("RED weight %v, want 0.01", red.Weight)
	}

	// Spec-level headroom fraction overrides Config.Headroom.
	mgr, _, err = MustParse("fifo+sharing?headroom=0.1").Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := mgr.(*buffer.Sharing)
	if got, want := sh.Headroom(), units.Bytes(0.1*float64(cfg.Buffer)); got != want {
		t.Errorf("sharing headroom %v, want %v from spec fraction", got, want)
	}
}

// TestBuildIsStateless: one Scheme value builds independent links.
func TestBuildIsStateless(t *testing.T) {
	cfg := testConfig()
	s := MustParse("fifo+threshold")
	m1, _, err := s.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.Admit(0, 400)
	if m2.Total() != 0 {
		t.Error("second build shares state with the first")
	}
}

// TestNewLink: the link runs at cfg's rate on its simulator's clock,
// whatever cfg.Now said, and a Build failure comes back as the error.
func TestNewLink(t *testing.T) {
	cfg := testConfig()
	cfg.Now = func() float64 {
		t.Error("scheduler reads cfg.Now, not the simulator's clock")
		return 0
	}
	sm := sim.New()
	link, err := MustParse("wfq+threshold").NewLink(sm, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var departed float64
	link.OnDepart = func(*packet.Packet) { departed = sm.Now() }
	sm.At(1, func() { link.Receive(&packet.Packet{Flow: 0, Size: 500}) })
	sm.RunUntil(2)
	if want := 1 + 500*8/cfg.LinkRate.BitsPerSecond(); departed != want {
		t.Errorf("packet departed at %v, want %v", departed, want)
	}

	cfg.Specs = []packet.FlowSpec{{TokenRate: -1}}
	if _, err := MustParse("fifo+threshold").NewLink(sim.New(), cfg, nil); err == nil {
		t.Error("negative token rate built a link")
	}
}

// TestCatalogue: every registry entry has a doc line and a paper
// section, appears in at least one combination, and the renderers cover
// it.
func TestCatalogue(t *testing.T) {
	var b strings.Builder
	if err := WriteCatalogue(&b); err != nil {
		t.Fatal(err)
	}
	specs, markdown := strings.Join(Specs(), " "), MarkdownCatalogue()
	check := func(kind, name, doc, paper string) {
		if doc == "" || paper == "" {
			t.Errorf("%s %q lacks doc or paper section", kind, name)
		}
		if !strings.Contains(specs, name) {
			t.Errorf("%s %q appears in no combination", kind, name)
		}
		if !strings.Contains(b.String(), name) {
			t.Errorf("-list-schemes output omits %q", name)
		}
		if !strings.Contains(markdown, "`"+name+"`") {
			t.Errorf("markdown catalogue omits %q", name)
		}
	}
	for _, d := range schedulers {
		check("scheduler", d.name, d.doc, d.paper)
	}
	for _, d := range managers {
		check("manager", d.name, d.doc, d.paper)
	}
}

// TestBuildOverNoFlows walks the registry: a topology builds a link no
// flow traverses over an empty population when its scheme is
// population-insensitive, so every such combination must build over
// zero flows — and its link run idle — while a population-sensitive one
// refuses an empty population with an error.
func TestBuildOverNoFlows(t *testing.T) {
	built := 0
	for _, spec := range Specs() {
		s := MustParse(spec)
		cfg := testConfig()
		cfg.Specs, cfg.QueueOf = nil, nil
		sm := sim.New()
		link, err := s.NewLink(sm, cfg, stats.NewCollector(0, 0))
		switch {
		case s.PopulationSensitive():
			if err == nil {
				t.Errorf("%s: population-sensitive scheme built over no flows", spec)
			}
			continue
		case err != nil:
			t.Errorf("%s: %v", spec, err)
			continue
		}
		sm.RunUntil(1)
		if link.Busy() || link.Manager().Total() != 0 {
			t.Errorf("%s: an idle link is busy or holds %v", spec, link.Manager().Total())
		}
		built++
	}
	if built < 20 {
		t.Errorf("only %d combinations built over no flows", built)
	}
}
