package source

import (
	"testing"
	"unsafe"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// The allocation gates of the packet path's first stage, beside the
// kernel's (internal/sim): once the arena, heap and pool are warm, a
// source emitting into a sink that releases, and a regulator passing a
// packet on, allocate nothing — no packet, no method value per re-arm,
// no queue regrowth.

// releasingSink is the downstream of every gate here: it ends the
// packet's life the way a link without hooks does.
func releasingSink(s *sim.Simulator, count *int) Sink {
	return SinkFunc(func(p *packet.Packet) {
		*count++
		s.Release(p)
	})
}

func TestSourcesEmitWithoutAllocating(t *testing.T) {
	starts := map[string]func(s *sim.Simulator, sink Sink){
		"onoff": func(s *sim.Simulator, sink Sink) {
			NewOnOff(s, sim.NewRand(1), OnOffConfig{
				Flow: 0, PacketSize: 500,
				PeakRate: units.MbitsPerSecond(40), AvgRate: units.MbitsPerSecond(16), MeanBurst: units.KiloBytes(25),
			}, sink).Start()
		},
		"cbr": func(s *sim.Simulator, sink Sink) {
			NewCBR(s, 0, 500, units.MbitsPerSecond(16), sink).Start()
		},
	}
	for name, start := range starts {
		s := sim.New()
		emitted := 0
		start(s, releasingSink(s, &emitted))
		for i := 0; i < 1000; i++ { // several ON/OFF cycles
			s.Step()
		}
		before := emitted
		allocs := testing.AllocsPerRun(1000, func() { s.Step() })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per event in steady state, want 0", name, allocs)
		}
		if emitted == before {
			t.Errorf("%s: no packet emitted while measuring", name)
		}
	}
}

// burst offers n back-to-back packets to a regulator with a bucket one
// packet deep, then drains the kernel: the first passes at once, the
// rest queue and are released one re-armed event at a time.
func burst(s *sim.Simulator, reg Sink, n int) {
	for i := 0; i < n; i++ {
		p := s.NewPacket()
		p.Size = 500
		reg.Receive(p)
	}
	for s.Step() {
	}
}

func TestRegulatorsPassPacketsWithoutAllocating(t *testing.T) {
	spec := packet.FlowSpec{PeakRate: units.MbitsPerSecond(16), TokenRate: units.MbitsPerSecond(8), BucketSize: 500}
	regs := map[string]func(s *sim.Simulator, sink Sink) Sink{
		"shaper": func(s *sim.Simulator, sink Sink) Sink { return NewShaper(s, spec, sink) },
		"meter":  func(s *sim.Simulator, sink Sink) Sink { return NewMeter(s, spec, sink) },
	}
	for name, build := range regs {
		s := sim.New()
		passed := 0
		reg := build(s, releasingSink(s, &passed))
		burst(s, reg, 8) // warm: queue capacity, arena, pool
		allocs := testing.AllocsPerRun(200, func() { burst(s, reg, 8) })
		if allocs != 0 {
			t.Errorf("%s: %v allocs per 8-packet burst in steady state, want 0", name, allocs)
		}
		if passed != 8*202 {
			t.Errorf("%s: passed %d packets, want %d", name, passed, 8*202)
		}
	}
}

// TestShaperQueueReusesItsCapacity is the regression test of the
// re-growing queue: popping with q = q[1:] consumed capacity from the
// front, so a shaper holding a standing backlog reallocated and copied
// it every time the tail ran out, and the consumed slots kept pointing
// at packets already recycled. The head-index queue serves a standing
// backlog from one backing array and holds no dead pointer.
func TestShaperQueueReusesItsCapacity(t *testing.T) {
	s := sim.New()
	passed := 0
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(8), BucketSize: 500}
	sh := NewShaper(s, spec, releasingSink(s, &passed))
	// A burst builds the backlog; arrivals at exactly the token rate
	// then keep it standing while the head advances through the array.
	const backlog = 1000
	for i := 0; i < backlog; i++ {
		p := s.NewPacket()
		p.Size = 500
		sh.Receive(p)
	}
	NewCBR(s, 0, 500, spec.TokenRate, sh).Start()
	for i := 0; i < 20*backlog; i++ { // many compactions
		s.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { s.Step() }); allocs != 0 {
		t.Errorf("%v allocs per event with a standing backlog, want 0", allocs)
	}
	if n := sh.q.len(); n < backlog-2 || n > backlog+2 {
		t.Fatalf("backlog %d, want about %d", n, backlog)
	}
	if c := cap(sh.q.q); c > 4*backlog {
		t.Errorf("queue capacity %d for a backlog of %d: consumed slots are not reused", c, backlog)
	}
	for i, p := range sh.q.q[:sh.q.head] {
		if p != nil {
			t.Fatalf("consumed slot %d still points at a packet", i)
		}
	}
	for i, p := range sh.q.q[len(sh.q.q):cap(sh.q.q)] {
		if p != nil {
			t.Fatalf("slot %d beyond the queue's end still points at a packet", i)
		}
	}
}

// TestSlabsBuildInConstantAllocations is construction's gate: a slab of
// senders or shapers is a fixed handful of allocations at any size
// (the elements, and the carved first send ring or shaping queue), and
// initializing and starting an element allocates nothing — its events
// carry the element itself, so no per-flow callback is built.
func TestSlabsBuildInConstantAllocations(t *testing.T) {
	for _, n := range []int{1, 1000} {
		if a := testing.AllocsPerRun(10, func() { _ = TCPs(n) }); a != 3 {
			t.Errorf("TCPs(%d): %v allocations, want 3", n, a)
		}
		if a := testing.AllocsPerRun(10, func() { _ = Shapers(n) }); a != 2 {
			t.Errorf("Shapers(%d): %v allocations, want 2", n, a)
		}
	}
	s := sim.New()
	s.Reserve(1 << 12)
	var count int
	sink := releasingSink(s, &count)
	spec := packet.FlowSpec{PeakRate: units.MbitsPerSecond(40), TokenRate: units.MbitsPerSecond(4), BucketSize: units.KiloBytes(10)}
	tcps, shapers := TCPs(100), Shapers(100)
	onoffs, cbrs := make([]OnOff, 100), make([]CBR, 100)
	rng := sim.NewRand(1)
	i := 0
	allocs := testing.AllocsPerRun(99, func() {
		tcps[i].Init(s, TCPConfig{Flow: i, SegmentSize: 500, PaceRate: units.MbitsPerSecond(48)}, sink).Start()
		sh := shapers[i].Init(s, spec, sink)
		onoffs[i].Init(s, rng, OnOffConfig{
			Flow: i, PacketSize: 500,
			PeakRate: units.MbitsPerSecond(40), AvgRate: units.MbitsPerSecond(16), MeanBurst: units.KiloBytes(25),
		}, sh).Start()
		cbrs[i].Init(s, i, 500, units.MbitsPerSecond(16), sh).Start()
		i++
	})
	if allocs != 0 {
		t.Errorf("initializing and starting slab elements: %v allocations per flow, want 0", allocs)
	}
}

// TestTCPSize pins the sender's size. One TCP per flow sits in a sizing
// cell's slab, up to 10⁶ of them, so each byte here is a megabyte
// there; it must also stay within 256 bytes, the allocator size class a
// lone NewTCP lands in (a field that pushed it past 256 once cost a
// third more memory per sender). Update the number deliberately.
func TestTCPSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(TCP{}); got != 240 {
		t.Errorf("unsafe.Sizeof(TCP{}) = %d, want 240 (and never above 256)", got)
	}
}
