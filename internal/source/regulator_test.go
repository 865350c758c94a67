package source

import (
	"math"
	"testing"
	"testing/quick"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

func spec2Mb50KB() packet.FlowSpec {
	return packet.FlowSpec{
		PeakRate:   units.MbitsPerSecond(16),
		TokenRate:  units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(50),
	}
}

func TestShaperOutputConforms(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	spec := spec2Mb50KB()
	sh := NewShaper(s, spec, rec)
	// Feed a much-too-fast ON-OFF source through the shaper.
	src := NewOnOff(s, sim.NewRand(2), OnOffConfig{
		Flow: 0, PacketSize: 500,
		PeakRate:  units.MbitsPerSecond(40),
		AvgRate:   units.MbitsPerSecond(8),
		MeanBurst: units.KiloBytes(200),
	}, sh)
	src.Start()
	s.RunUntil(30)
	if len(rec.Packets) < 100 {
		t.Fatalf("too few shaped packets: %d", len(rec.Packets))
	}
	if err := rec.ConformsTo(spec, 0); err != nil {
		t.Errorf("shaper output violates its own envelope: %v", err)
	}
}

func TestShaperMarksConformantAndKeepsOrder(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	sh := NewShaper(s, spec2Mb50KB(), rec)
	src := NewCBR(s, 0, 500, units.MbitsPerSecond(16), sh)
	src.Start()
	s.RunUntil(5)
	src.Stop()
	s.Run(0)
	if len(rec.Packets) == 0 {
		t.Fatal("no packets through shaper")
	}
	var last uint64
	for i, p := range rec.Packets {
		if !p.Conformant {
			t.Fatalf("packet %d not marked conformant", i)
		}
		if i > 0 && p.Seq <= last {
			t.Fatalf("order violated at %d: seq %d after %d", i, p.Seq, last)
		}
		last = p.Seq
	}
}

func TestShaperDoesNotDrop(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	sh := NewShaper(s, spec2Mb50KB(), rec)
	src := NewCBR(s, 0, 500, units.MbitsPerSecond(16), sh)
	src.Start()
	s.RunUntil(2)
	src.Stop()
	sent := src.seq
	s.Run(0) // drain the shaping queue
	if uint64(len(rec.Packets)) != sent {
		t.Errorf("shaper delivered %d of %d packets", len(rec.Packets), sent)
	}
	if sh.q.len() != 0 {
		t.Errorf("backlog %d after drain", sh.q.len())
	}
}

func TestShaperInitialBurstPassesUnshaped(t *testing.T) {
	// A full bucket should let σ bytes through back-to-back.
	s := sim.New()
	rec := NewRecorder(s)
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(1), BucketSize: 5000}
	sh := NewShaper(s, spec, rec)
	for i := 0; i < 10; i++ {
		sh.Receive(&packet.Packet{Flow: 0, Size: 500, Seq: uint64(i)})
	}
	// All 10 × 500 = 5000 bytes fit the initial bucket: no delay at all.
	if len(rec.Packets) != 10 {
		t.Fatalf("initial burst: %d packets passed immediately, want 10", len(rec.Packets))
	}
	for _, at := range rec.Times {
		if at != 0 {
			t.Fatalf("initial burst delayed to %v", at)
		}
	}
	// The 11th must wait a full packet time at the token rate.
	sh.Receive(&packet.Packet{Flow: 0, Size: 500, Seq: 10})
	s.Run(0)
	want := 500 * 8.0 / 1e6
	if math.Abs(rec.Times[10]-want) > 1e-12 {
		t.Errorf("11th packet released at %v, want %v", rec.Times[10], want)
	}
}

func TestShaperRejectsOversizePacket(t *testing.T) {
	s := sim.New()
	sh := NewShaper(s, packet.FlowSpec{TokenRate: units.Mbps, BucketSize: 400}, NewRecorder(s))
	defer func() {
		if recover() == nil {
			t.Error("packet larger than bucket did not panic")
		}
	}()
	sh.Receive(&packet.Packet{Size: 500})
}

func TestShaperSteadyStateRate(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	spec := spec2Mb50KB()
	sh := NewShaper(s, spec, rec)
	src := NewCBR(s, 0, 500, units.MbitsPerSecond(16), sh) // 8× oversubscribed
	src.Start()
	const dur = 20.0
	s.RunUntil(dur)
	rate := rec.TotalBytes().Bits() / dur
	// Long-run output rate must approach ρ (the σ head start amortizes out).
	if rate > 2e6*1.02 || rate < 2e6*0.95 {
		t.Errorf("shaped rate %.4g, want ≈ 2e6", rate)
	}
}

func TestMeterColorsByProfile(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	spec := spec2Mb50KB()
	m := NewMeter(s, spec, rec)
	src := NewCBR(s, 0, 500, units.MbitsPerSecond(4), m) // 2× the token rate
	src.Start()
	const dur = 30.0
	s.RunUntil(dur)
	var green, red units.Bytes
	for _, p := range rec.Packets {
		if p.Conformant {
			green += p.Size
		} else {
			red += p.Size
		}
	}
	if green != m.Green || red != m.Red {
		t.Errorf("meter counters (%v,%v) disagree with marks (%v,%v)", m.Green, m.Red, green, red)
	}
	// Green rate ≈ ρ (σ is small relative to 30s·ρ), red the remainder.
	greenRate := green.Bits() / dur
	if math.Abs(greenRate-2e6)/2e6 > 0.05 {
		t.Errorf("green rate %.4g, want ≈ 2e6", greenRate)
	}
	total := rec.TotalBytes()
	if green+red != total {
		t.Errorf("green %v + red %v != total %v", green, red, total)
	}
}

func TestMeterForwardsEverythingUndelayed(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	m := NewMeter(s, spec2Mb50KB(), rec)
	src := NewCBR(s, 0, 500, units.MbitsPerSecond(8), m)
	src.Start()
	s.RunUntil(1)
	if uint64(len(rec.Packets)) != src.seq {
		t.Errorf("meter delivered %d of %d", len(rec.Packets), src.seq)
	}
	for i, p := range rec.Packets {
		if p.Arrived != rec.Times[i] {
			t.Fatalf("meter delayed packet %d", i)
		}
	}
}

func TestMeterGreenStreamConforms(t *testing.T) {
	// The green-marked substream must itself satisfy the (σ, ρ) envelope
	// with one packet of slack for the marking granularity.
	s := sim.New()
	rec := NewRecorder(s)
	spec := spec2Mb50KB()
	m := NewMeter(s, spec, rec)
	src := NewOnOff(s, sim.NewRand(9), OnOffConfig{
		Flow: 0, PacketSize: 500,
		PeakRate:  units.MbitsPerSecond(40),
		AvgRate:   units.MbitsPerSecond(16),
		MeanBurst: units.KiloBytes(250),
	}, m)
	src.Start()
	s.RunUntil(20)
	green := NewRecorder(s)
	for i, p := range rec.Packets {
		if p.Conformant {
			green.Packets = append(green.Packets, p)
			green.Times = append(green.Times, rec.Times[i])
		}
	}
	if len(green.Packets) < 50 {
		t.Fatalf("too few green packets: %d", len(green.Packets))
	}
	if err := green.ConformsTo(spec, 0); err != nil {
		t.Errorf("green substream violates envelope: %v", err)
	}
}

func TestMeterBurstPotential(t *testing.T) {
	s := sim.New()
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(8), BucketSize: 10000}
	m := NewMeter(s, spec, NewRecorder(s))
	if got := m.BurstPotential(); got != 10000 {
		t.Fatalf("initial burst potential %v, want full bucket", got)
	}
	m.Receive(&packet.Packet{Size: 4000})
	if got := m.BurstPotential(); got != 6000 {
		t.Fatalf("after 4000B: potential %v, want 6000", got)
	}
	// 8 Mb/s = 1e6 B/s: after 2 ms the pool regains 2000 bytes.
	s.At(0.002, func() {})
	s.Run(0)
	if got := m.BurstPotential(); got != 8000 {
		t.Fatalf("after refill: potential %v, want 8000", got)
	}
	// The pool saturates at σ.
	s.At(1, func() {})
	s.Run(0)
	if got := m.BurstPotential(); got != 10000 {
		t.Fatalf("saturated potential %v, want 10000", got)
	}
}

func TestBucketTimeUntil(t *testing.T) {
	b := newBucket(units.MbitsPerSecond(8), 1000) // 1e6 B/s
	b.tokens = 0
	if got := b.timeUntil(500); math.Abs(got-0.0005) > 1e-15 {
		t.Errorf("timeUntil(500) = %v, want 0.0005", got)
	}
	if got := b.timeUntil(2000); !math.IsInf(got, 1) {
		t.Errorf("timeUntil beyond depth = %v, want +Inf", got)
	}
	b.tokens = 700
	if got := b.timeUntil(500); got != 0 {
		t.Errorf("timeUntil with enough tokens = %v, want 0", got)
	}
}

func TestBucketRefillMonotonic(t *testing.T) {
	b := newBucket(units.Mbps, 1000)
	b.refill(1)
	defer func() {
		if recover() == nil {
			t.Error("backwards refill did not panic")
		}
	}()
	b.refill(0.5)
}

// Property: for any arrival pattern (random sizes and gaps), the shaper
// output satisfies the (σ, ρ) envelope exactly.
func TestPropertyShaperAlwaysConforms(t *testing.T) {
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: 3000}
	f := func(sizes []uint16, gaps []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		s := sim.New()
		rec := NewRecorder(s)
		sh := NewShaper(s, spec, rec)
		at := 0.0
		for i, raw := range sizes {
			size := units.Bytes(raw%2900) + 100 // 100..2999 bytes, within bucket
			if i < len(gaps) {
				at += float64(gaps[i]) / 1e5 // 0..0.65s gaps
			}
			p := &packet.Packet{Flow: 0, Size: size, Seq: uint64(i)}
			s.At(at, func() { sh.Receive(p) })
		}
		s.Run(0)
		return rec.ConformsTo(spec, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: meter conservation — every byte is either green or red, and
// the green volume over the whole run never exceeds σ + ρT.
func TestPropertyMeterConservation(t *testing.T) {
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: 3000}
	f := func(sizes []uint16, gaps []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		s := sim.New()
		rec := NewRecorder(s)
		m := NewMeter(s, spec, rec)
		at := 0.0
		var offered units.Bytes
		for i, raw := range sizes {
			size := units.Bytes(raw%1400) + 100
			offered += size
			if i < len(gaps) {
				at += float64(gaps[i]) / 1e5
			}
			p := &packet.Packet{Flow: 0, Size: size, Seq: uint64(i)}
			s.At(at, func() { m.Receive(p) })
		}
		s.Run(0)
		if m.Green+m.Red != offered {
			return false
		}
		limit := spec.Envelope(s.Now()) + 1e-9
		return m.Green.Bits() <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
