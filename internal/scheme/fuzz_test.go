package scheme

import (
	"sort"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// FuzzParseScheme: Parse never panics on any spec string; a spec it
// accepts round-trips through its canonical form; and Build on a fixed
// 4-flow link returns a data plane or an error, never a panic. The
// seeds are every registered combination and every out-of-range spec
// TestInvalidParamValues refuses.
//
//	go test -run '^$' -fuzz FuzzParseScheme -fuzztime 60s ./internal/scheme
func FuzzParseScheme(f *testing.F) {
	for _, spec := range Specs() {
		f.Add(spec)
	}
	bad := make([]string, 0, len(badParamSpecs))
	for spec := range badParamSpecs {
		bad = append(bad, spec)
	}
	sort.Strings(bad)
	for _, spec := range bad {
		f.Add(spec)
	}
	f.Add("hybrid:3+sharing?headroom=0.25")
	f.Add("fifo+red?min=0.9,max=0.5")
	f.Add("RPQ+thresholds?classes=6,interval=0.001")

	mk := func(peak, tok, bucketKB float64) packet.FlowSpec {
		return packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(peak),
			TokenRate:  units.MbitsPerSecond(tok),
			BucketSize: units.KiloBytes(bucketKB),
		}
	}
	cfg := Config{
		Specs:    []packet.FlowSpec{mk(16, 2, 50), mk(40, 8, 100), mk(40, 2, 50), mk(8, 1, 20)},
		LinkRate: units.MbitsPerSecond(48),
		Buffer:   units.KiloBytes(500),
		Headroom: units.KiloBytes(100),
		QueueOf:  []int{0, 1, 1, 2},
		Now:      func() float64 { return 0 },
		Seed:     1,
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		canon := s.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its spec %q does not parse: %v", spec, canon, err)
		}
		if again.Spec() != canon {
			t.Fatalf("Parse(%q).Spec() = %q, which parses to %q", spec, canon, again.Spec())
		}
		mgr, sc, err := s.Build(cfg)
		if err == nil && (mgr == nil || sc == nil) {
			t.Fatalf("Build(%q) returned a nil component and no error", canon)
		}
	})
}
