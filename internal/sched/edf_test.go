package sched

import (
	"math"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

func TestEDFServesEarliestDeadline(t *testing.T) {
	now := 0.0
	e := NewEDF(func() float64 { return now }, []float64{0.100, 0.005})
	e.Enqueue(mkPkt(0, 500, 1)) // deadline 0.100
	e.Enqueue(mkPkt(1, 500, 2)) // deadline 0.005
	if p := e.Dequeue(); p.Flow != 1 {
		t.Fatalf("served flow %d first, want tight-deadline flow 1", p.Flow)
	}
	if p := e.Dequeue(); p.Flow != 0 {
		t.Fatal("second packet wrong")
	}
	if e.Dequeue() != nil {
		t.Fatal("empty EDF returned a packet")
	}
}

func TestEDFDeadlineAccountsForArrivalTime(t *testing.T) {
	now := 0.0
	e := NewEDF(func() float64 { return now }, []float64{0.010, 0.012})
	e.Enqueue(mkPkt(1, 500, 1)) // deadline 0.012
	now = 0.005
	e.Enqueue(mkPkt(0, 500, 2)) // deadline 0.015 — later despite tighter budget
	if p := e.Dequeue(); p.Flow != 1 {
		t.Fatal("EDF ignored arrival time in deadline computation")
	}
}

func TestEDFPerFlowOrderAndTieBreak(t *testing.T) {
	now := 0.0
	e := NewEDF(func() float64 { return now }, []float64{0.01, 0.01})
	// Same deadlines: arrival order must win.
	e.Enqueue(mkPkt(0, 500, 10))
	e.Enqueue(mkPkt(1, 500, 11))
	e.Enqueue(mkPkt(0, 500, 12))
	want := []uint64{10, 11, 12}
	for i, w := range want {
		if p := e.Dequeue(); p.Seq != w {
			t.Fatalf("dequeue %d: got seq %d, want %d", i, p.Seq, w)
		}
	}
}

func TestEDFLenBacklog(t *testing.T) {
	e := NewEDF(func() float64 { return 0 }, []float64{0.01})
	e.Enqueue(mkPkt(0, 500, 0))
	e.Enqueue(mkPkt(0, 300, 1))
	if e.Len() != 2 || e.Backlog() != 800 {
		t.Errorf("len=%d backlog=%v", e.Len(), e.Backlog())
	}
	e.Dequeue()
	if e.Len() != 1 || e.Backlog() != 300 {
		t.Errorf("after dequeue: len=%d backlog=%v", e.Len(), e.Backlog())
	}
}

func TestEDFValidation(t *testing.T) {
	now := func() float64 { return 0 }
	for i, f := range []func(){
		func() { NewEDF(nil, []float64{0.1}) },
		func() { NewEDF(now, nil) },
		func() { NewEDF(now, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEDFEndToEndMeetsTightDeadlines(t *testing.T) {
	// Rate-controlled EDF: shaped flows + deadline scheduling. The
	// tight-budget flow's worst delay must come in near its budget even
	// against a heavy loose-budget flow.
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	e := NewEDF(s.Now, []float64{0.002, 0.050})
	link := NewLink(s, rate, e, buffer.NewFixedThreshold(units.KiloBytes(300),
		[]units.Bytes{units.KiloBytes(50), units.KiloBytes(250)}), nil)
	var worst0 float64
	link.OnDepart = func(p *packet.Packet) {
		if p.Flow == 0 {
			if d := s.Now() - p.Arrived; d > worst0 {
				worst0 = d
			}
		}
	}
	urgent := source.NewCBR(s, 0, 500, units.MbitsPerSecond(2), link)
	urgent.Start()
	bulk := source.NewCBR(s, 1, 500, rate, link)
	bulk.Start()
	s.RunUntil(3)
	if worst0 == 0 {
		t.Fatal("urgent flow never served")
	}
	// Budget 2 ms + one non-preemptable packet time.
	bound := 0.002 + 2*units.TransmissionTime(500, rate)
	if worst0 > bound {
		t.Errorf("urgent worst delay %v exceeds EDF budget bound %v", worst0, bound)
	}
}

func TestVirtualClockGuaranteesRates(t *testing.T) {
	// Flow 0 reserved 8 Mb/s sending exactly that; flow 1 reserved
	// 40 Mb/s flooding. VC must deliver flow 0's reservation.
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	vc := NewVirtualClock(s.Now, []units.Rate{units.MbitsPerSecond(8), units.MbitsPerSecond(40)})
	var got units.Bytes
	link := NewLink(s, rate, vc, buffer.NewUnlimited(2), nil)
	link.OnDepart = func(p *packet.Packet) {
		if p.Flow == 0 {
			got += p.Size
		}
	}
	src := source.NewCBR(s, 0, 500, units.MbitsPerSecond(8), link)
	src.Start()
	agg := source.NewCBR(s, 1, 500, rate, link)
	agg.Start()
	const dur = 2.0
	s.RunUntil(dur)
	thr := got.Bits() / dur
	if thr < 8e6*0.97 {
		t.Errorf("reserved flow got %.3g b/s under Virtual Clock, want ≈ 8e6", thr)
	}
}

func TestVirtualClockStampAdvances(t *testing.T) {
	now := 0.0
	vc := NewVirtualClock(func() float64 { return now }, []units.Rate{units.MbitsPerSecond(4)})
	// Two back-to-back 500B packets: stamps at 1ms and 2ms.
	vc.Enqueue(mkPkt(0, 500, 0))
	vc.Enqueue(mkPkt(0, 500, 1))
	if math.Abs(vc.clocks[0]-0.002) > 1e-12 {
		t.Errorf("clock = %v, want 0.002", vc.clocks[0])
	}
	// After idling past the clock, the stamp resyncs to real time.
	now = 1.0
	vc.Enqueue(mkPkt(0, 500, 2))
	if math.Abs(vc.clocks[0]-1.001) > 1e-12 {
		t.Errorf("clock = %v after idle, want 1.001", vc.clocks[0])
	}
}

func TestVirtualClockValidation(t *testing.T) {
	now := func() float64 { return 0 }
	for i, f := range []func(){
		func() { NewVirtualClock(nil, []units.Rate{units.Mbps}) },
		func() { NewVirtualClock(now, nil) },
		func() { NewVirtualClock(now, []units.Rate{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestVirtualClockWorkConserving(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(8)
	vc := NewVirtualClock(s.Now, []units.Rate{units.Mbps})
	var delivered units.Bytes
	link := NewLink(s, rate, vc, buffer.NewTailDrop(units.KiloBytes(50), 1), nil)
	link.OnDepart = func(p *packet.Packet) { delivered += p.Size }
	src := source.NewCBR(s, 0, 500, 2*rate, link)
	src.Start()
	const dur = 1.0
	s.RunUntil(dur)
	if float64(delivered) < rate.BytesPerSecond()*dur-1500 {
		t.Errorf("VC idled while backlogged: delivered %v", delivered)
	}
}
