package sched

import (
	"math"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

func TestLinkTransmitsAtLinkRate(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	col := stats.NewCollector(1, 0)
	link := NewLink(s, rate, NewFIFO(), buffer.NewTailDrop(units.KiloBytes(100), 1), col)
	src := source.NewCBR(s, 0, 500, units.MbitsPerSecond(96), link)
	src.Start()
	const dur = 1.0
	s.RunUntil(dur)
	thr := col.AggregateThroughput(dur)
	if math.Abs(thr.BitsPerSecond()-48e6)/48e6 > 0.01 {
		t.Errorf("saturated link throughput %v, want 48Mb/s", thr)
	}
}

func TestLinkDropsWhenManagerRejects(t *testing.T) {
	s := sim.New()
	col := stats.NewCollector(1, 0)
	// Tiny buffer: most packets of a 2x-oversubscribed source drop.
	link := NewLink(s, units.MbitsPerSecond(4), NewFIFO(), buffer.NewTailDrop(1000, 1), col)
	src := source.NewCBR(s, 0, 500, units.MbitsPerSecond(8), link)
	src.Start()
	s.RunUntil(1)
	f := col.Flow(0)
	if f.Dropped.Total().Packets == 0 {
		t.Error("no drops despite 2x oversubscription and tiny buffer")
	}
	offered := f.Offered.Total().Packets
	kept := f.Departed.Total().Packets + f.Dropped.Total().Packets
	// Conservation: offered = departed + dropped + still queued (≤ 2 pkts + 1 in service).
	if offered-kept > 3 {
		t.Errorf("conservation violated: offered %d, departed+dropped %d", offered, kept)
	}
}

func TestLinkOccupancyReleasedOnDeparture(t *testing.T) {
	s := sim.New()
	mgr := buffer.NewTailDrop(units.KiloBytes(10), 1)
	link := NewLink(s, units.MbitsPerSecond(8), NewFIFO(), mgr, nil)
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	if mgr.Total() != 1000 {
		t.Fatalf("occupancy %v after two arrivals", mgr.Total())
	}
	s.Run(0)
	if mgr.Total() != 0 {
		t.Errorf("occupancy %v after drain, want 0", mgr.Total())
	}
	if link.Busy() {
		t.Error("link still busy after drain")
	}
}

func TestLinkWorkConservation(t *testing.T) {
	// The link must never idle while packets are queued: delivered bytes
	// over a saturated interval equal rate × time exactly (± one packet).
	s := sim.New()
	rate := units.MbitsPerSecond(8)
	col := stats.NewCollector(1, 0)
	link := NewLink(s, rate, NewFIFO(), buffer.NewTailDrop(units.KiloBytes(50), 1), col)
	src := source.NewCBR(s, 0, 500, units.MbitsPerSecond(16), link)
	src.Start()
	const dur = 2.0
	s.RunUntil(dur)
	delivered := col.Flow(0).Departed.Total().Bytes.Bits()
	capacity := rate.BitsPerSecond() * dur
	if capacity-delivered > 2*500*8 {
		t.Errorf("delivered %v bits of %v possible: link idled while backlogged", delivered, capacity)
	}
}

func TestLinkHooksFire(t *testing.T) {
	s := sim.New()
	link := NewLink(s, units.MbitsPerSecond(8), NewFIFO(), buffer.NewTailDrop(600, 1), nil)
	var drops, departs int
	link.OnDrop = func(*packet.Packet) { drops++ }
	link.OnDepart = func(*packet.Packet) { departs++ }
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	link.Receive(&packet.Packet{Flow: 0, Size: 500}) // buffer full: dropped
	s.Run(0)
	if drops != 1 || departs != 1 {
		t.Errorf("hooks: drops=%d departs=%d, want 1,1", drops, departs)
	}
}

func TestLinkValidation(t *testing.T) {
	s := sim.New()
	cases := []func(){
		func() { NewLink(s, 0, NewFIFO(), buffer.NewTailDrop(100, 1), nil) },
		func() { NewLink(s, units.Mbps, nil, buffer.NewTailDrop(100, 1), nil) },
		func() { NewLink(s, units.Mbps, NewFIFO(), nil, nil) },
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

func TestLinkFIFODelayMatchesQueueingTheory(t *testing.T) {
	// Deterministic check: with the buffer pre-filled to Q bytes, a FIFO
	// arrival waits exactly Q·8/R before its own transmission completes
	// at +L·8/R — the (Q₁+Q₂)/R argument in the paper's §2.1 proof.
	s := sim.New()
	rate := units.MbitsPerSecond(8)
	link := NewLink(s, rate, NewFIFO(), buffer.NewTailDrop(units.KiloBytes(100), 2), nil)
	for i := 0; i < 10; i++ {
		link.Receive(&packet.Packet{Flow: 0, Size: 500})
	}
	var done float64
	probe := &packet.Packet{Flow: 1, Size: 500, Arrived: 0}
	link.OnDepart = func(p *packet.Packet) {
		if p.Flow == 1 {
			done = s.Now()
		}
	}
	link.Receive(probe)
	s.Run(0)
	want := 11 * units.TransmissionTime(500, rate)
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("probe finished at %v, want %v", done, want)
	}
}

func TestHybridEndToEndQueueRates(t *testing.T) {
	// Two queues with rates 36 and 12 Mb/s, both saturated by their
	// member flows: delivered bytes split 3:1.
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	col := stats.NewCollector(2, 0.2)
	queueOf := []int{0, 1}
	qRates := []units.Rate{units.MbitsPerSecond(36), units.MbitsPerSecond(12)}
	h := NewHybrid(rate, s.Now, queueOf, qRates)
	mgr := buffer.NewPartitioned(queueOf, []buffer.Manager{
		buffer.NewTailDrop(units.KiloBytes(50), 2),
		buffer.NewTailDrop(units.KiloBytes(50), 2),
	})
	link := NewLink(s, rate, h, mgr, col)
	for i := 0; i < 2; i++ {
		src := source.NewCBR(s, i, 500, rate, link)
		src.Start()
	}
	const dur = 2.0
	s.RunUntil(dur)
	b0 := float64(col.Flow(0).Departed.Total().Bytes)
	b1 := float64(col.Flow(1).Departed.Total().Bytes)
	if ratio := b0 / b1; math.Abs(ratio-3) > 0.1 {
		t.Errorf("queue service ratio %.3f, want 3", ratio)
	}
}

func TestLinkSetRateTakesEffectOnNextPacket(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(4)
	col := stats.NewCollector(1, 0)
	link := NewLink(s, rate, NewFIFO(), buffer.NewTailDrop(units.KiloBytes(100), 1), col)
	// Two packets enqueued back-to-back: the first serializes at the old
	// rate even though SetRate fires mid-transmission; the second at the
	// new rate.
	var times []float64
	link.OnDepart = func(p *packet.Packet) { times = append(times, s.Now()) }
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	s.After(1e-6, func() { link.SetRate(units.MbitsPerSecond(8)) })
	s.Run(0)
	if len(times) != 2 {
		t.Fatalf("departures: %d, want 2", len(times))
	}
	slow := units.TransmissionTime(500, units.MbitsPerSecond(4))
	fast := units.TransmissionTime(500, units.MbitsPerSecond(8))
	if math.Abs(times[0]-slow) > 1e-12 {
		t.Errorf("first departure at %v, want %v (old rate)", times[0], slow)
	}
	if math.Abs(times[1]-(slow+fast)) > 1e-12 {
		t.Errorf("second departure at %v, want %v (new rate)", times[1], slow+fast)
	}
	if link.Rate() != units.MbitsPerSecond(8) {
		t.Errorf("Rate() = %v after SetRate", link.Rate())
	}
}

func TestLinkSetRateRejectsNonPositive(t *testing.T) {
	s := sim.New()
	link := NewLink(s, units.MbitsPerSecond(4), NewFIFO(), buffer.NewTailDrop(1000, 1), nil)
	defer func() {
		if recover() == nil {
			t.Error("SetRate(0) did not panic")
		}
	}()
	link.SetRate(0)
}

func TestLinkFailureHaltsServiceAndRecoveryResumes(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(4)
	col := stats.NewCollector(1, 0)
	// Buffer fits exactly two packets: while the link is down, arrivals
	// beyond that must drop.
	link := NewLink(s, rate, NewFIFO(), buffer.NewTailDrop(1000, 1), col)
	if link.Down() {
		t.Fatal("new link reports Down")
	}
	link.SetDown(true)
	for i := 0; i < 4; i++ {
		link.Receive(&packet.Packet{Flow: 0, Size: 500})
	}
	s.Run(0)
	f := col.Flow(0)
	if got := f.Departed.Total().Packets; got != 0 {
		t.Errorf("failed link transmitted %d packets", got)
	}
	if got := f.Dropped.Total().Packets; got != 2 {
		t.Errorf("dropped %d packets while down, want 2 (buffer holds 2)", got)
	}
	link.SetDown(false)
	s.Run(0)
	if got := f.Departed.Total().Packets; got != 2 {
		t.Errorf("recovered link delivered %d queued packets, want 2", got)
	}
	// Idempotent recover on an idle link must not double-start service.
	link.SetDown(false)
	s.Run(0)
	if got := f.Departed.Total().Packets; got != 2 {
		t.Errorf("idempotent recover replayed service: %d departures", got)
	}
}

func TestLinkInFlightPacketCompletesAcrossFailure(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(4)
	col := stats.NewCollector(1, 0)
	link := NewLink(s, rate, NewFIFO(), buffer.NewTailDrop(units.KiloBytes(10), 1), col)
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	link.Receive(&packet.Packet{Flow: 0, Size: 500})
	// Fail mid-first-transmission: the wire finishes the first packet,
	// then service halts with the second still queued.
	s.After(1e-6, func() { link.SetDown(true) })
	s.Run(0)
	if got := col.Flow(0).Departed.Total().Packets; got != 1 {
		t.Errorf("departures with failure mid-transmission: %d, want 1", got)
	}
	link.SetDown(false)
	s.Run(0)
	if got := col.Flow(0).Departed.Total().Packets; got != 2 {
		t.Errorf("departures after recovery: %d, want 2", got)
	}
}

// TestLinkCountsPushoutsAsDrops is the pushout drop-accounting
// regression test: victims evicted by a PushoutNotifier scheduler must
// show up in the statistics collector, the sched.pushouts metric, and
// the OnDrop hook, so packet conservation (offered = departed +
// dropped + queued) holds for pushout schemes.
func TestLinkCountsPushoutsAsDrops(t *testing.T) {
	s := sim.New()
	col := stats.NewCollector(2, 0)
	// Two flows share a 2000-byte buffer; flow 1 is guaranteed the
	// whole of it, flow 0 nothing — so flow 1 arrivals push out flow 0.
	po := buffer.NewPushoutFIFO(2000, []units.Bytes{0, 2000})
	link := NewLink(s, units.MbitsPerSecond(8), po, po, col)
	reg := metrics.NewRegistry()
	link.Instrument(reg, "pushout")
	var hooked int
	link.OnDrop = func(p *packet.Packet) { hooked++ }

	// Fill the buffer with flow-0 packets (first is dequeued into
	// service immediately), then overflow with flow 1.
	for i := 0; i < 5; i++ {
		link.Receive(&packet.Packet{Flow: 0, Size: 500})
	}
	for i := 0; i < 4; i++ {
		link.Receive(&packet.Packet{Flow: 1, Size: 500})
	}
	// The 5th flow-0 packet tail-drops (flow 0 has no share). Three of
	// the four flow-1 arrivals evict the three queued flow-0 packets;
	// the fourth finds only the in-service packet and tail-drops. So
	// flow 0 loses 4 packets total (1 tail drop + 3 pushouts), and the
	// OnDrop hook sees every loss either way (2 tail drops + 3
	// pushouts).
	f0 := col.Flow(0)
	if got := f0.Dropped.Total().Packets; got != 4 {
		t.Errorf("flow 0 dropped %d packets in the collector, want 4 (1 tail drop + 3 pushouts)", got)
	}
	if got := reg.Counter("sched.pushouts.pushout").Value(); got != 3 {
		t.Errorf("sched.pushouts.pushout = %d, want 3", got)
	}
	if hooked != 5 {
		t.Errorf("OnDrop saw %d packets, want 5", hooked)
	}
	s.Run(0)
	// Conservation across both flows: everything offered either
	// departed or was dropped once the link drains.
	for flow := 0; flow < 2; flow++ {
		f := col.Flow(flow)
		if f.Offered.Total().Packets != f.Departed.Total().Packets+f.Dropped.Total().Packets {
			t.Errorf("flow %d: offered %d != departed %d + dropped %d", flow,
				f.Offered.Total().Packets, f.Departed.Total().Packets, f.Dropped.Total().Packets)
		}
	}
}
