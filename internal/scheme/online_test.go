package scheme

import (
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func onlineTestConfig(nflows int) Config {
	specs := make([]packet.FlowSpec, nflows)
	for i := range specs {
		specs[i] = packet.FlowSpec{
			TokenRate:  units.MbitsPerSecond(1),
			BucketSize: units.KiloBytes(1),
		}
	}
	return Config{
		Specs:    specs,
		LinkRate: units.MbitsPerSecond(10),
		Buffer:   units.KiloBytes(16),
	}
}

// TestOnlineSpecsRegistered: the pushout and online policies are
// reachable from the spec grammar, build as combined queue/managers
// (the same object is manager and scheduler), and appear in the Specs
// inventory exactly once, composed with "none" only.
func TestOnlineSpecsRegistered(t *testing.T) {
	cfg := onlineTestConfig(3)
	for _, spec := range []string{"pushout", "cgreedy", "classseg", "lqf", "semigreedy"} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if s.Spec() != spec+"+none" {
			t.Errorf("Parse(%q).Spec() = %q, want %q", spec, s.Spec(), spec+"+none")
		}
		if s.PopulationSensitive() {
			t.Errorf("%q should be population-insensitive (per-flow shares/classes only)", spec)
		}
		mgr, sc, err := s.Build(cfg)
		if err != nil {
			t.Fatalf("Build(%q): %v", spec, err)
		}
		if mgr == nil || sc == nil {
			t.Fatalf("Build(%q) returned nil component", spec)
		}
		if mgrObj, schedObj := any(mgr), any(sc); mgrObj != schedObj {
			t.Errorf("%q: manager and scheduler should be the same combined object", spec)
		}
		inventory := Specs()
		found := 0
		for _, v := range inventory {
			if v == spec+"+none" {
				found++
			}
			if strings.HasPrefix(v, spec+"+") && v != spec+"+none" {
				t.Errorf("inventory pairs %q with a real manager: %q", spec, v)
			}
		}
		if found != 1 {
			t.Errorf("Specs() lists %q+none %d times, want once", spec, found)
		}
	}
}

func TestOnlineSpecRejectsManagers(t *testing.T) {
	for _, spec := range []string{"pushout+threshold", "cgreedy+sharing", "lqf+red"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail: these schedulers bring their own admission policy", spec)
		}
	}
}

// TestPushoutShareParam: share=0 derives the paper's thresholds,
// share>0 grants every flow the same fraction of B.
func TestPushoutShareParam(t *testing.T) {
	cfg := onlineTestConfig(2)
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"pushout?share=0.5", true},
		{"pushout?share=0", true},
		{"pushout?share=1.5", false},
		{"pushout?share=-1", false},
	} {
		s, err := Parse(tc.spec)
		if err == nil {
			_, _, err = s.Build(cfg)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}

// TestOnlineClassesResolution: explicit Config.Classes wins and is
// validated; nil Classes derives a spec-based classification.
func TestOnlineClassesResolution(t *testing.T) {
	cfg := onlineTestConfig(3)
	s := MustParse("classseg?classes=2")
	cfg.Classes = []int{0, 1, 0}
	if _, _, err := s.Build(cfg); err != nil {
		t.Fatalf("explicit classes: %v", err)
	}
	cfg.Classes = []int{0, 2, 0} // class 2 outside [0,2)
	if _, _, err := s.Build(cfg); err == nil {
		t.Error("out-of-range class accepted")
	}
	cfg.Classes = []int{0, 1} // wrong length
	if _, _, err := s.Build(cfg); err == nil {
		t.Error("class map shorter than the flow population accepted")
	}
	cfg.Classes = nil
	if _, _, err := s.Build(cfg); err != nil {
		t.Fatalf("derived classes: %v", err)
	}
}
