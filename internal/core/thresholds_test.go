package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func spec(sigmaKB, rhoMbps float64) packet.FlowSpec {
	return packet.FlowSpec{
		TokenRate:  units.MbitsPerSecond(rhoMbps),
		BucketSize: units.KiloBytes(sigmaKB),
	}
}

// table1Specs returns the (σ, ρ) profiles of the paper's Table 1.
func table1Specs() []packet.FlowSpec {
	return []packet.FlowSpec{
		spec(50, 2), spec(50, 2), spec(50, 2),
		spec(100, 8), spec(100, 8), spec(100, 8),
		spec(50, 0.4), spec(50, 0.4), spec(50, 2),
	}
}

func TestPeakRateThreshold(t *testing.T) {
	// Proposition 1 example: 1 MB buffer, 48 Mb/s link, 8 Mb/s flow:
	// threshold = B·ρ/R = 1 MB/6.
	got := PeakRateThreshold(units.MbitsPerSecond(8), units.MbitsPerSecond(48), units.MegaBytes(1))
	oneSixthMB := 1e6 / 6.0
	want := units.Bytes(oneSixthMB)
	if got != want {
		t.Errorf("threshold = %v, want %v", got, want)
	}
}

func TestThresholdsTable1(t *testing.T) {
	specs := table1Specs()
	r := units.MbitsPerSecond(48)
	b := units.MegaBytes(1)
	th, err := Thresholds(specs, r, b)
	if err != nil {
		t.Fatal(err)
	}
	// Σρ = 32.8 Mb/s (the paper: "aggregate reserved rate is 32.8 Mb/s,
	// or about 68% of the link capacity").
	u := ReservedUtilization(specs, r)
	if math.Abs(u-32.8/48) > 1e-12 {
		t.Errorf("utilization = %v, want 32.8/48", u)
	}
	// Raw thresholds sum = Σσ + B·Σρ/R = 600 KB + 1 MB·0.6833 > B, so
	// no scaling happens and each threshold is exactly σᵢ + ρᵢB/R.
	for i, s := range specs {
		want := float64(s.BucketSize) + 1e6*s.TokenRate.BitsPerSecond()/48e6
		if math.Abs(float64(th[i])-want) > 1 {
			t.Errorf("flow %d threshold %v, want %v", i, th[i], want)
		}
	}
}

func TestThresholdsScaleUpToPartition(t *testing.T) {
	// Big buffer: raw thresholds sum below B, so footnote 5 scaling
	// applies and Σthresholds == B.
	specs := []packet.FlowSpec{spec(10, 4), spec(20, 8)}
	b := units.MegaBytes(10)
	th, err := Thresholds(specs, units.MbitsPerSecond(48), b)
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Bytes
	for _, v := range th {
		sum += v
	}
	if math.Abs(float64(sum-b)) > 2 {
		t.Errorf("scaled thresholds sum to %v, want full buffer %v", sum, b)
	}
	// Proportions preserved.
	raw0 := 10000.0 + 1e7*4e6/48e6
	raw1 := 20000.0 + 1e7*8e6/48e6
	if math.Abs(float64(th[0])/float64(th[1])-raw0/raw1) > 1e-6 {
		t.Errorf("scaling not proportional: %v/%v", th[0], th[1])
	}
}

func TestThresholdsErrors(t *testing.T) {
	good := []packet.FlowSpec{spec(10, 1)}
	if _, err := Thresholds(good, 0, 1000); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Thresholds(good, units.Mbps, -1); err == nil {
		t.Error("negative buffer accepted")
	}
	if _, err := Thresholds(nil, units.Mbps, 1000); err == nil {
		t.Error("empty flow set accepted")
	}
	if _, err := Thresholds([]packet.FlowSpec{{}}, units.Mbps, 1000); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestRequiredBufferFIFO(t *testing.T) {
	// Equation (9) for Table 1: B ≥ R·Σσ/(R−Σρ) = 48·600KB/15.2.
	specs := table1Specs()
	got, err := RequiredBufferFIFO(specs, units.MbitsPerSecond(48))
	if err != nil {
		t.Fatal(err)
	}
	want := 48.0 * 600000 / 15.2
	if math.Abs(float64(got)-want) > 1 {
		t.Errorf("required buffer %v, want %.0f", got, want)
	}
}

func TestRequiredBufferFIFOBandwidthLimited(t *testing.T) {
	specs := []packet.FlowSpec{spec(10, 30), spec(10, 30)}
	if _, err := RequiredBufferFIFO(specs, units.MbitsPerSecond(48)); err == nil {
		t.Error("over-reserved link accepted")
	}
}

func TestRequiredBufferWFQ(t *testing.T) {
	if got := RequiredBufferWFQ(table1Specs()); got != units.KiloBytes(600) {
		t.Errorf("WFQ buffer %v, want Σσ = 600KB", got)
	}
}

func TestBufferInflation(t *testing.T) {
	cases := []struct{ u, want float64 }{
		{0, 1}, {0.5, 2}, {0.9, 10}, {32.8 / 48, 48 / 15.2},
	}
	for _, c := range cases {
		if got := BufferInflation(c.u); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("inflation(%v) = %v, want %v", c.u, got, c.want)
		}
	}
	if !math.IsInf(BufferInflation(1), 1) || !math.IsInf(BufferInflation(1.2), 1) {
		t.Error("u ≥ 1 should give +Inf")
	}
}

func TestBufferInflationNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative utilization did not panic")
		}
	}()
	BufferInflation(-0.1)
}

// Property: the FIFO requirement always dominates the WFQ requirement,
// with equality only at zero utilization — the §2.3 comparison.
func TestPropertyFIFODominatesWFQ(t *testing.T) {
	f := func(sigmas []uint8, rhos []uint8) bool {
		n := len(sigmas)
		if n == 0 || n > 8 || len(rhos) < n {
			return true
		}
		specs := make([]packet.FlowSpec, n)
		for i := range specs {
			specs[i] = spec(float64(sigmas[i])+1, float64(rhos[i]%5)+0.1)
		}
		r := units.MbitsPerSecond(48)
		if ReservedUtilization(specs, r) >= 1 {
			return true
		}
		fifo, err := RequiredBufferFIFO(specs, r)
		if err != nil {
			return false
		}
		return fifo >= RequiredBufferWFQ(specs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Thresholds never yields a flow threshold below σᵢ + ρᵢB/R
// (scaling only enlarges). B is drawn below Table 1's scale-up point
// Σσ/(1 − u) — eq. 9's buffer, ≈1.89 MB — where no scaling hides a
// threshold under its bound, so the bound itself is what is checked.
func TestPropertyThresholdLowerBound(t *testing.T) {
	specs := table1Specs()
	r := units.MbitsPerSecond(48)
	scaleUp, err := RequiredBufferFIFO(specs, r)
	if err != nil {
		t.Fatal(err)
	}
	lo := units.KiloBytes(100)
	f := func(bSel uint16) bool {
		b := lo + units.Bytes(float64(scaleUp-lo)*float64(bSel)/math.MaxUint16)
		th, err := Thresholds(specs, r, b)
		if err != nil {
			return false
		}
		for i, s := range specs {
			raw := float64(s.BucketSize) + float64(b)*s.TokenRate.BitsPerSecond()/r.BitsPerSecond()
			if float64(th[i]) < raw-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// BenchmarkThresholdComputation measures the admission-time threshold
// math for the 30 flows of the paper's Table 2 on its 48 Mb/s link.
func BenchmarkThresholdComputation(b *testing.B) {
	var specs []packet.FlowSpec
	for _, c := range []struct{ peakMbps, sigmaKB, rhoMbps float64 }{{8, 15, 0.6}, {24, 30, 2.4}, {8, 35, 0.3}} {
		for i := 0; i < 10; i++ {
			s := spec(c.sigmaKB, c.rhoMbps)
			s.PeakRate = units.MbitsPerSecond(c.peakMbps)
			specs = append(specs, s)
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := Thresholds(specs, units.MbitsPerSecond(48), units.MegaBytes(2)); err != nil {
			b.Fatal(err)
		}
	}
}
