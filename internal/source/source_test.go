package source

import (
	"math"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

func table1Flow0() OnOffConfig {
	return OnOffConfig{
		Flow:       0,
		PacketSize: 500,
		PeakRate:   units.MbitsPerSecond(16),
		AvgRate:    units.MbitsPerSecond(2),
		MeanBurst:  units.KiloBytes(50),
	}
}

func TestOnOffConfigValidate(t *testing.T) {
	if err := table1Flow0().Validate(); err != nil {
		t.Fatalf("Table 1 flow 0 config rejected: %v", err)
	}
	bad := []OnOffConfig{
		{PacketSize: 0, PeakRate: units.Mbps, AvgRate: units.Mbps, MeanBurst: 1000},
		{PacketSize: 500, PeakRate: 0, AvgRate: units.Mbps, MeanBurst: 1000},
		{PacketSize: 500, PeakRate: units.Mbps, AvgRate: 2 * units.Mbps, MeanBurst: 1000},
		{PacketSize: 500, PeakRate: units.Mbps, AvgRate: 0, MeanBurst: 1000},
		{PacketSize: 500, PeakRate: units.Mbps, AvgRate: units.Mbps, MeanBurst: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestOnOffHoldingTimeMoments(t *testing.T) {
	c := table1Flow0()
	// E[on] = 50KB·8 / 16Mb/s = 25 ms.
	if got := c.MeanOn(); math.Abs(got-0.025) > 1e-12 {
		t.Errorf("MeanOn = %v, want 0.025", got)
	}
	// E[off] = E[on]·(16/2 − 1) = 175 ms.
	if got := c.MeanOff(); math.Abs(got-0.175) > 1e-12 {
		t.Errorf("MeanOff = %v, want 0.175", got)
	}
}

func TestOnOffAverageRate(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewOnOff(s, sim.NewRand(7), table1Flow0(), rec)
	src.Start()
	const dur = 400.0
	s.RunUntil(dur)
	rate := rec.TotalBytes().Bits() / dur
	want := 2e6
	if math.Abs(rate-want)/want > 0.10 {
		t.Errorf("empirical rate %.3g b/s, want %.3g ± 10%%", rate, want)
	}
}

func TestOnOffPeakRateSpacing(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewOnOff(s, sim.NewRand(3), table1Flow0(), rec)
	src.Start()
	s.RunUntil(50)
	if len(rec.Times) < 100 {
		t.Fatalf("too few packets: %d", len(rec.Times))
	}
	// Within a burst, spacing is exactly one packet time at peak rate;
	// across bursts it is longer. No spacing may be shorter.
	pktTime := units.TransmissionTime(500, units.MbitsPerSecond(16))
	for i := 1; i < len(rec.Times); i++ {
		gap := rec.Times[i] - rec.Times[i-1]
		if gap < pktTime-1e-12 {
			t.Fatalf("packets %d,%d spaced %v < packet time %v (exceeds peak rate)", i-1, i, gap, pktTime)
		}
	}
}

func TestOnOffMeanBurst(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewOnOff(s, sim.NewRand(11), table1Flow0(), rec)
	src.Start()
	s.RunUntil(600)

	// Reconstruct bursts: packets separated by more than ~2 packet
	// times belong to different bursts.
	pktTime := units.TransmissionTime(500, units.MbitsPerSecond(16))
	var bursts []float64
	cur := 0.0
	for i, p := range rec.Packets {
		if i > 0 && rec.Times[i]-rec.Times[i-1] > 2*pktTime {
			bursts = append(bursts, cur)
			cur = 0
		}
		cur += float64(p.Size)
	}
	bursts = append(bursts, cur)
	sum := 0.0
	for _, b := range bursts {
		sum += b
	}
	mean := sum / float64(len(bursts))
	if math.Abs(mean-50000)/50000 > 0.15 {
		t.Errorf("mean burst %v bytes, want 50000 ± 15%% (%d bursts)", mean, len(bursts))
	}
}

func TestOnOffStop(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewOnOff(s, sim.NewRand(1), table1Flow0(), rec)
	src.Start()
	s.RunUntil(10)
	n := len(rec.Packets)
	if n == 0 {
		t.Fatal("no packets in 10s")
	}
	src.Stop()
	s.RunUntil(20)
	if got := len(rec.Packets); got != n {
		t.Errorf("source kept emitting after Stop: %d -> %d", n, got)
	}
}

func TestOnOffSequencesAndStamps(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewOnOff(s, sim.NewRand(5), table1Flow0(), rec)
	src.Start()
	s.RunUntil(20)
	for i, p := range rec.Packets {
		if p.Seq != uint64(i) {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
		if p.Flow != 0 || p.Size != 500 {
			t.Fatalf("packet fields wrong: %v", p)
		}
		if p.Created != rec.Times[i] || p.Arrived != rec.Times[i] {
			t.Fatalf("timestamps wrong: created=%v arrived=%v at %v", p.Created, p.Arrived, rec.Times[i])
		}
	}
	if src.Seq() != uint64(len(rec.Packets)) {
		t.Errorf("Seq() = %d, want %d", src.Seq(), len(rec.Packets))
	}
}

func TestCBRSpacing(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewCBR(s, 1, 500, units.MbitsPerSecond(4), rec)
	src.Start()
	s.RunUntil(0.9995)
	// 4 Mb/s with 4000-bit packets: one per ms at t = 0, 1ms, ..., 999ms.
	if len(rec.Times) != 1000 {
		t.Fatalf("got %d packets in 1s, want 1000", len(rec.Times))
	}
	for i, at := range rec.Times {
		if math.Abs(at-float64(i)*0.001) > 1e-9 {
			t.Fatalf("packet %d at %v, want %v", i, at, float64(i)*0.001)
		}
	}
}

func TestCBRStopAndOffset(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewCBR(s, 1, 500, units.MbitsPerSecond(4), rec)
	src.Offset = 0.5
	src.Start()
	s.RunUntil(0.25)
	if len(rec.Packets) != 0 {
		t.Fatal("CBR emitted before offset")
	}
	s.RunUntil(1)
	if len(rec.Packets) == 0 {
		t.Fatal("CBR never started")
	}
	if rec.Times[0] != 0.5 {
		t.Errorf("first packet at %v, want 0.5", rec.Times[0])
	}
	src.Stop()
	n := len(rec.Packets)
	s.RunUntil(2)
	if len(rec.Packets) != n {
		t.Error("CBR kept emitting after Stop")
	}
}

func TestCBRInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate CBR did not panic")
		}
	}()
	NewCBR(sim.New(), 0, 500, 0, SinkFunc(func(*packet.Packet) {}))
}

// TestCBROffersAtRate: a CBR at the link rate is the open-loop greedy
// source the scheduler tests saturate links with.
func TestCBROffersAtRate(t *testing.T) {
	s := sim.New()
	rec := NewRecorder(s)
	src := NewCBR(s, 8, 500, units.MbitsPerSecond(48), rec)
	src.Start()
	const dur = 1.0
	s.RunUntil(dur)
	rate := rec.TotalBytes().Bits() / dur
	if math.Abs(rate-48e6)/48e6 > 0.01 {
		t.Errorf("cbr source rate %.3g, want 48e6 ± 1%%", rate)
	}
}
