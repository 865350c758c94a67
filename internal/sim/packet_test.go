package sim

import (
	"reflect"
	"testing"

	"bufqos/internal/metrics"
	"bufqos/internal/packet"
)

// TestPacketEventsOrderLikePlainEvents: a packet-carrying event takes
// exactly the heap position the plain call would have taken — After and
// AfterPacket interleave in scheduling order at one instant, and the
// stamped twin sorts by its stamp like AtStamped.
func TestPacketEventsOrderLikePlainEvents(t *testing.T) {
	s := New()
	var got []uint64
	note := func(p *packet.Packet) { got = append(got, p.Seq) }
	pkt := func(seq uint64) *packet.Packet {
		p := s.NewPacket()
		p.Seq = seq
		return p
	}
	s.AfterPacket(5, note, pkt(0))
	s.After(5, func() { got = append(got, 1) })
	s.AtStampedPacket(5, 3, note, pkt(4))
	s.AtStamped(5, 1, func() { got = append(got, 3) })
	s.AfterPacket(5, note, pkt(2))
	s.AtStampedPacket(5, 3, note, pkt(5))
	s.RunUntil(10)
	if want := []uint64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}

// TestPacketEventCancel: cancelling a packet event — from the heap or
// from inside its own dispatch batch — keeps the handler from running,
// and the slot's next occupant does not inherit the packet.
func TestPacketEventCancel(t *testing.T) {
	s := New()
	fired := 0
	handler := func(*packet.Packet) { fired++ }
	s.AfterPacket(1, handler, s.NewPacket()).Cancel()
	var victim Event
	s.At(5, func() { victim.Cancel() })
	victim = s.AfterPacket(5, handler, s.NewPacket())
	plain := false
	s.At(5, func() { s.After(0, func() { plain = true }) })
	s.RunUntil(10)
	if fired != 0 {
		t.Errorf("cancelled packet events fired %d times", fired)
	}
	if !plain {
		t.Error("plain event scheduled into a recycled packet slot did not fire")
	}
	if got := s.Steps(); got != 3 {
		t.Errorf("Steps() = %d, want 3 (cancelled events must not count)", got)
	}
}

// TestPacketEventValidation checks the argument panics.
func TestPacketEventValidation(t *testing.T) {
	s := New()
	handler := func(*packet.Packet) {}
	for name, fn := range map[string]func(){
		"nil handler":           func() { s.AfterPacket(1, nil, s.NewPacket()) },
		"nil packet":            func() { s.AfterPacket(1, handler, nil) },
		"negative delay":        func() { s.AfterPacket(-1, handler, s.NewPacket()) },
		"stamp after fire time": func() { s.AtStampedPacket(1, 2, handler, s.NewPacket()) },
		"past event":            func() { s.RunUntil(5); s.AtStampedPacket(1, 1, handler, s.NewPacket()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestZeroAllocPacketEvent is the payload event's gate, beside the
// kernel's: a packet drawn from the pool, carried across a delay by a
// stored handler and released on arrival costs no allocation.
func TestZeroAllocPacketEvent(t *testing.T) {
	s := New()
	var arrive func(p *packet.Packet)
	arrive = func(p *packet.Packet) {
		s.Release(p)
		s.AfterPacket(1e-6, arrive, s.NewPacket())
	}
	s.AfterPacket(0, arrive, s.NewPacket())
	for i := 0; i < 100; i++ { // warm the arena, heap and pool
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("packet event allocates %v/op in steady state, want 0", allocs)
	}
}

// TestReleaseTwicePanics reaches the ownership invariant through the
// simulator's own surface.
func TestReleaseTwicePanics(t *testing.T) {
	s := New()
	p := s.NewPacket()
	s.Release(p)
	defer func() {
		if recover() == nil {
			t.Error("second Release of one packet did not panic")
		}
	}()
	s.Release(p)
}

// TestPoolMetrics: an instrumented kernel reports the pool — packets
// out at once as a high-water gauge, packets carved from the heap as a
// counter — and a packet that is never released stays counted.
func TestPoolMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New()
	s.Instrument(reg)
	var held []*packet.Packet
	for i := 0; i < 300; i++ {
		held = append(held, s.NewPacket())
	}
	for _, p := range held[1:] { // leak held[0]
		s.Release(p)
	}
	for i := 0; i < 50; i++ {
		s.Release(s.NewPacket())
	}
	live := reg.Gauge("sim.packets_live")
	if live.Max() != 300 || live.Value() != 1 {
		t.Errorf("sim.packets_live max %d now %d, want 300 and 1", live.Max(), live.Value())
	}
	if v, _ := reg.Value("sim.packets_created"); v != 512 {
		t.Errorf("sim.packets_created = %v, want 512 (two chunks)", v)
	}
}
