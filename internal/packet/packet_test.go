package packet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bufqos/internal/units"
)

func TestFlowSpecValidate(t *testing.T) {
	good := FlowSpec{
		PeakRate:   units.MbitsPerSecond(16),
		TokenRate:  units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(50),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}

	cases := []FlowSpec{
		{TokenRate: 0, BucketSize: 100},
		{TokenRate: -1, BucketSize: 100},
		{TokenRate: units.Mbps, BucketSize: -1},
		{PeakRate: units.Mbps, TokenRate: 2 * units.Mbps, BucketSize: 0},
		// NaN and infinity pass a sign check; each must be refused.
		{TokenRate: units.Rate(math.NaN()), BucketSize: 100},
		{TokenRate: units.Rate(math.Inf(1)), BucketSize: 100},
		{PeakRate: units.Rate(math.NaN()), TokenRate: units.Mbps, BucketSize: 100},
		{PeakRate: units.Rate(math.Inf(1)), TokenRate: units.Mbps, BucketSize: 100},
		{PeakRate: units.Rate(math.Inf(-1)), TokenRate: units.Mbps, BucketSize: 100},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, c)
		}
	}
}

func TestFlowSpecNoPeakIsValid(t *testing.T) {
	s := FlowSpec{TokenRate: units.Mbps, BucketSize: units.KiloBytes(10)}
	if err := s.Validate(); err != nil {
		t.Errorf("spec without peak rate rejected: %v", err)
	}
}

func TestEnvelope(t *testing.T) {
	s := FlowSpec{
		PeakRate:   units.MbitsPerSecond(16),
		TokenRate:  units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(50),
	}
	// At d=0 the bucket term wins only if peak allows nothing: envelope
	// is min(σ, peak·0) = 0 with a peak limit.
	if got := s.Envelope(0); got != 0 {
		t.Errorf("Envelope(0) with peak = %v, want 0", got)
	}
	// Long horizon: bucket term governs: σ + ρd.
	d := 10.0
	want := s.BucketSize.Bits() + s.TokenRate.BitsPerSecond()*d
	if got := s.Envelope(d); got != want {
		t.Errorf("Envelope(%v) = %v, want %v", d, got, want)
	}
	// Negative horizon clamps to zero.
	if got := s.Envelope(-1); got != 0 {
		t.Errorf("Envelope(-1) = %v, want 0", got)
	}
}

func TestEnvelopeNoPeak(t *testing.T) {
	s := FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(50)}
	if got := s.Envelope(0); got != s.BucketSize.Bits() {
		t.Errorf("Envelope(0) without peak = %v, want σ = %v", got, s.BucketSize.Bits())
	}
}

// Property: the envelope is non-decreasing and Lipschitz in the peak
// rate: Envelope(a+b) ≤ Envelope(a) + P·b for all non-negative a, b.
// (The tighter ρ·b bound only holds once the bucket segment binds at a;
// in the peak-to-bucket crossover region the increment can reach P·b.)
func TestPropertyEnvelopeMonotone(t *testing.T) {
	s := FlowSpec{
		PeakRate:   units.MbitsPerSecond(40),
		TokenRate:  units.MbitsPerSecond(8),
		BucketSize: units.KiloBytes(100),
	}
	f := func(a16, b16 uint16) bool {
		a, b := float64(a16)/1000, float64(b16)/1000
		ea, eab := s.Envelope(a), s.Envelope(a+b)
		if eab < ea {
			return false
		}
		return eab <= ea+s.PeakRate.BitsPerSecond()*b+1e-6
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flow: 3, Seq: 7, Size: 500, Conformant: true, Created: 1.5}
	s := p.String()
	for _, want := range []string{"flow=3", "seq=7", "conf"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	p.Conformant = false
	if !strings.Contains(p.String(), "excess") {
		t.Errorf("String() = %q missing excess marker", p.String())
	}
}
