package sched

import (
	"fmt"
	"math"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// runWFQ drives saturating sources at the given offered rates through a
// WFQ link and returns per-flow delivered bytes over [warmup, dur].
func runWFQ(t *testing.T, rate units.Rate, weights []units.Rate, offered []units.Rate, dur float64) []units.Bytes {
	t.Helper()
	s := sim.New()
	col := stats.NewCollector(len(weights), 0)
	w := NewWFQ(rate, s.Now, weights)
	// Unlimited buffer: these tests isolate scheduling fairness. (With a
	// shared tail-drop buffer the first saturating flow would capture
	// all the space — the very pathology the paper's §2 opens with.)
	mgr := buffer.NewUnlimited(len(weights))
	link := NewLink(s, rate, w, mgr, col)
	for i, r := range offered {
		if r <= 0 {
			continue
		}
		src := source.NewCBR(s, i, 500, r, link)
		src.Start()
	}
	s.RunUntil(dur)
	out := make([]units.Bytes, len(weights))
	for i := range out {
		out[i] = col.Flow(i).Departed.Total().Bytes
	}
	return out
}

func TestWFQEqualWeightsEqualService(t *testing.T) {
	rate := units.MbitsPerSecond(48)
	weights := []units.Rate{units.MbitsPerSecond(1), units.MbitsPerSecond(1)}
	offered := []units.Rate{rate, rate} // both saturating
	got := runWFQ(t, rate, weights, offered, 2.0)
	ratio := float64(got[0]) / float64(got[1])
	if math.Abs(ratio-1) > 0.02 {
		t.Errorf("equal weights served %v vs %v (ratio %.3f)", got[0], got[1], ratio)
	}
}

func TestWFQWeightedService(t *testing.T) {
	rate := units.MbitsPerSecond(48)
	weights := []units.Rate{units.MbitsPerSecond(3), units.MbitsPerSecond(1)}
	offered := []units.Rate{rate, rate}
	got := runWFQ(t, rate, weights, offered, 2.0)
	ratio := float64(got[0]) / float64(got[1])
	if math.Abs(ratio-3) > 0.1 {
		t.Errorf("3:1 weights served ratio %.3f, want 3", ratio)
	}
}

func TestWFQWorkConserving(t *testing.T) {
	// A single backlogged flow gets the whole link regardless of weight.
	rate := units.MbitsPerSecond(48)
	weights := []units.Rate{units.MbitsPerSecond(1), units.MbitsPerSecond(47)}
	offered := []units.Rate{rate, 0} // only the small-weight flow sends
	got := runWFQ(t, rate, weights, offered, 1.0)
	thr := got[0].Bits() / 1.0
	if math.Abs(thr-48e6)/48e6 > 0.01 {
		t.Errorf("lone flow got %.3g b/s, want full 48e6", thr)
	}
}

func TestWFQGuaranteedRateUnderAggression(t *testing.T) {
	// Flow 0 sends exactly its reservation; flow 1 floods. WFQ must
	// deliver flow 0's reservation (the per-flow queue isolates it).
	rate := units.MbitsPerSecond(48)
	weights := []units.Rate{units.MbitsPerSecond(8), units.MbitsPerSecond(40)}
	offered := []units.Rate{units.MbitsPerSecond(8), rate}
	got := runWFQ(t, rate, weights, offered, 2.0)
	thr0 := got[0].Bits() / 2.0
	if thr0 < 8e6*0.98 {
		t.Errorf("reserved flow got %.3g b/s, want ≥ 98%% of 8e6", thr0)
	}
}

func TestWFQExcessSharedByWeight(t *testing.T) {
	// Three flows, weights 1:2:5, all saturating: the full link splits
	// 1:2:5 — the paper's "WFQ shares excess in proportion to
	// reservations" behaviour.
	rate := units.MbitsPerSecond(48)
	weights := []units.Rate{units.MbitsPerSecond(1), units.MbitsPerSecond(2), units.MbitsPerSecond(5)}
	offered := []units.Rate{rate, rate, rate}
	got := runWFQ(t, rate, weights, offered, 2.0)
	total := float64(got[0] + got[1] + got[2])
	for i, share := range []float64{1.0 / 8, 2.0 / 8, 5.0 / 8} {
		frac := float64(got[i]) / total
		if math.Abs(frac-share) > 0.02 {
			t.Errorf("flow %d got fraction %.3f of link, want %.3f", i, frac, share)
		}
	}
}

func TestWFQVirtualTimeMonotone(t *testing.T) {
	s := sim.New()
	w := NewWFQ(units.MbitsPerSecond(8), s.Now, []units.Rate{units.MbitsPerSecond(4), units.MbitsPerSecond(4)})
	mgr := buffer.NewTailDrop(units.KiloBytes(50), 2)
	link := NewLink(s, units.MbitsPerSecond(8), w, mgr, nil)
	src := source.NewCBR(s, 0, 500, units.MbitsPerSecond(6), link)
	src.Start()
	last := 0.0
	for i := 1; i <= 20; i++ {
		s.RunUntil(float64(i) * 0.05)
		v := w.VirtualTime()
		if v < last-1e-9 && v != 0 {
			t.Fatalf("virtual time went backwards: %v -> %v", last, v)
		}
		last = v
	}
}

func TestWFQIdleReset(t *testing.T) {
	s := sim.New()
	w := NewWFQ(units.MbitsPerSecond(8), s.Now, []units.Rate{units.MbitsPerSecond(8)})
	mgr := buffer.NewTailDrop(units.KiloBytes(50), 1)
	link := NewLink(s, units.MbitsPerSecond(8), w, mgr, nil)
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	s.Run(0) // drain completely
	if got := w.VirtualTime(); got != 0 {
		t.Errorf("virtual time after idle = %v, want reset to 0", got)
	}
}

func TestWFQDelayBoundForConformantFlow(t *testing.T) {
	// PGPS delay bound for a (σ, ρ)-conformant flow with weight ρ on an
	// exactly-allocated link: D ≤ σ/ρ + L/R (plus one packet time of
	// non-preemption). Flow 0 bursts σ then runs at ρ; flow 1 saturates.
	rate := units.MbitsPerSecond(48)
	sigma := units.KiloBytes(25)
	rho := units.MbitsPerSecond(8)
	s := sim.New()
	w := NewWFQ(rate, s.Now, []units.Rate{rho, rate - rho})
	mgr := buffer.NewUnlimited(2)
	link := NewLink(s, rate, w, mgr, nil)

	worst := 0.0
	link.OnDepart = func(p *packet.Packet) {
		if p.Flow != 0 {
			return
		}
		if d := s.Now() - p.Arrived; d > worst {
			worst = d
		}
	}
	// Aggressor.
	agg := source.NewCBR(s, 1, 500, rate, link)
	agg.Start()
	// Conformant flow: shaper output of a saturating feed.
	sh := source.NewShaper(s, packet.FlowSpec{TokenRate: rho, BucketSize: sigma}, link)
	feed := source.NewCBR(s, 0, 500, rate, sh)
	feed.Start()
	s.RunUntil(5)

	bound := sigma.Bits()/rho.BitsPerSecond() + 2*units.TransmissionTime(500, rate)
	if worst > bound+1e-9 {
		t.Errorf("worst-case delay %v exceeds PGPS bound %v", worst, bound)
	}
	if worst == 0 {
		t.Error("no flow-0 departures observed")
	}
}

func TestWFQFlowBacklogAccessor(t *testing.T) {
	w := NewWFQ(units.Mbps, func() float64 { return 0 }, []units.Rate{units.Mbps, units.Mbps})
	w.Enqueue(mkPkt(0, 500, 0))
	w.Enqueue(mkPkt(0, 500, 1))
	w.Enqueue(mkPkt(1, 500, 2))
	if w.FlowBacklog(0) != 2 || w.FlowBacklog(1) != 1 {
		t.Errorf("flow backlogs = %d,%d", w.FlowBacklog(0), w.FlowBacklog(1))
	}
	if w.Len() != 3 || w.Backlog() != 1500 {
		t.Errorf("len=%d backlog=%v", w.Len(), w.Backlog())
	}
}

func TestWFQPerFlowFIFOOrder(t *testing.T) {
	w := NewWFQ(units.Mbps, func() float64 { return 0 }, []units.Rate{units.Mbps})
	for i := 0; i < 5; i++ {
		w.Enqueue(mkPkt(0, 500, uint64(i)))
	}
	for i := 0; i < 5; i++ {
		p := w.Dequeue()
		if p.Seq != uint64(i) {
			t.Fatalf("per-flow order violated: got %d want %d", p.Seq, i)
		}
	}
}

func TestWFQValidation(t *testing.T) {
	now := func() float64 { return 0 }
	cases := []func(){
		func() { NewWFQ(0, now, []units.Rate{units.Mbps}) },
		func() { NewWFQ(units.Mbps, nil, []units.Rate{units.Mbps}) },
		func() { NewWFQ(units.Mbps, now, nil) },
		func() { NewWFQ(units.Mbps, now, []units.Rate{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("validation case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWFQSmallestFinishTagFirst(t *testing.T) {
	// Two packets arriving together: the one from the higher-weight
	// flow has the smaller finish tag and must go first.
	w := NewWFQ(units.MbitsPerSecond(10), func() float64 { return 0 },
		[]units.Rate{units.MbitsPerSecond(9), units.MbitsPerSecond(1)})
	w.Enqueue(mkPkt(1, 500, 100)) // low weight, enqueued first
	w.Enqueue(mkPkt(0, 500, 200)) // high weight
	if p := w.Dequeue(); p.Flow != 0 {
		t.Errorf("first dequeue from flow %d, want high-weight flow 0", p.Flow)
	}
}

// BenchmarkWFQEnqueueDequeue measures WFQ's per-packet cost as the flow
// count grows: the log N term of the sorted queue, which the paper's
// FIFO-plus-thresholds design avoids (compare bench's flat
// buffer.threshold_admit_release_ns; its sched.wfq_enq_deq_ns_1k is the
// 1000-flow point).
func BenchmarkWFQEnqueueDequeue(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("flows-%d", n), func(b *testing.B) {
			weights := make([]units.Rate, n)
			for i := range weights {
				weights[i] = units.Mbps
			}
			now := 0.0
			w := NewWFQ(units.Rate(float64(n)*2e6), func() float64 { return now }, weights)
			pkts := make([]*packet.Packet, n)
			for i := range pkts {
				pkts[i] = &packet.Packet{Flow: i, Size: 500}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Enqueue(pkts[i%n])
				now += 1e-7
				if w.Len() > n {
					w.Dequeue()
				}
			}
		})
	}
}
