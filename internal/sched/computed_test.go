package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// The computed-departure oracle. A script of arrivals and control
// changes runs on two links over the same buffer manager: the subject,
// a FIFO link with no OnDepart hook, which computes its departures, and
// the reference, the same link held to one departure event per packet
// by a hook that only releases the packet. Every admission and every
// departure is logged through the manager, with the per-flow occupancy
// at each arrival and the per-flow departure times so far at each
// departure, and the two logs must be equal.
//
// Times sit on a grid of u = 2⁻²⁰ s and every rate is a power of two in
// bits per second, so transmission times, departure times and arrival
// times are exact binary fractions and arrivals land exactly on
// departure instants. Every script event is scheduled before the run
// (at stamp 0), so the one order on which the two paths may differ
// (the link's documentation: an event due exactly at d_k scheduled at
// exactly d_{k-1}) never arises.

const gridUnit = 1.0 / (1 << 20)

var (
	scriptRates = []units.Rate{1 << 22, 1 << 23, 1 << 24}
	scriptSizes = []units.Bytes{100, 250, 500, 1500}
)

const scriptFlows = 3

// scriptManagers builds the five managers a script may run on, over a
// 3000-byte buffer that a burst fills.
var scriptManagers = []func(seed int64) buffer.Manager{
	func(int64) buffer.Manager { return buffer.NewTailDrop(3000, scriptFlows) },
	func(int64) buffer.Manager { return buffer.NewFixedThreshold(3000, []units.Bytes{1000, 1000, 1500}) },
	func(int64) buffer.Manager { return buffer.NewSharing(3000, []units.Bytes{800, 800, 800}, 500) },
	func(int64) buffer.Manager { return buffer.NewDynamicThreshold(3000, scriptFlows, 1) },
	func(seed int64) buffer.Manager {
		return buffer.NewRED(3000, scriptFlows, 750, 2250, 0.5, sim.NewRand(seed))
	},
}

// logged wraps a manager and logs each decision and each release.
type logged struct {
	buffer.Manager
	col *stats.Collector
	log []string
}

func (m *logged) Admit(flow int, size units.Bytes) bool {
	occ := m.occupancy()
	ok := m.Manager.Admit(flow, size)
	m.log = append(m.log, fmt.Sprintf("arrive flow %d size %v at occupancy %s: admitted %v", flow, size, occ, ok))
	return ok
}

// Release logs a departure. The collector has recorded every earlier
// departure by now, and with Arrived zero a packet's delay is its
// departure time, so the per-flow delay count, sum and maximum pin
// every departure time before this one.
func (m *logged) Release(flow int, size units.Bytes) {
	m.Manager.Release(flow, size)
	m.log = append(m.log, fmt.Sprintf("depart flow %d size %v after %s", flow, size, m.departures()))
}

func (m *logged) occupancy() string {
	var b strings.Builder
	for f := 0; f < scriptFlows; f++ {
		fmt.Fprintf(&b, "%v ", m.Manager.Occupancy(f))
	}
	return b.String()
}

func (m *logged) departures() string {
	var b strings.Builder
	for f := 0; f < scriptFlows; f++ {
		d := m.col.Delays(f)
		fmt.Fprintf(&b, "[%d %v %v] ", d.Count(), d.Mean(), d.Max())
	}
	return b.String()
}

// runScript runs data as a script on a fresh link and returns its log:
// hooked holds the link to the event path. The first byte picks the
// manager; then every three bytes are one step at a time 25·u·(b1>>3)
// after the last: an arrival (b0 % 8 < 5; flow b1 % 3, size b2 % 4),
// a rate change (5; rate b2 % 3), a failure toggle (6), or on the
// subject an OnDepart hook toggle (7).
func runScript(data []byte, hooked bool) []string {
	if len(data) == 0 {
		return nil
	}
	s := sim.New()
	col := stats.NewCollector(scriptFlows, 0)
	col.EnableDelays(1)
	mgr := &logged{Manager: scriptManagers[int(data[0])%len(scriptManagers)](int64(data[0])), col: col}
	link := NewLink(s, scriptRates[1], NewFIFO(), mgr, col)
	release := func(p *packet.Packet) { s.Release(p) }
	if hooked {
		link.OnDepart = release
	}
	at := 0.0
	down := false
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		op, b1, b2 := data[0]%8, data[1], data[2]
		at += 25 * gridUnit * float64(b1>>3)
		switch {
		case op < 5:
			flow, size := int(b1)%scriptFlows, scriptSizes[int(b2)%len(scriptSizes)]
			s.At(at, func() {
				p := s.NewPacket()
				p.Flow, p.Size = flow, size
				link.Receive(p)
			})
		case op == 5:
			rate := scriptRates[int(b2)%len(scriptRates)]
			s.At(at, func() { link.SetRate(rate) })
		case op == 6:
			down = !down
			d := down
			s.At(at, func() { link.SetDown(d) })
		default: // the reference keeps its hook, but the clock sees the step
			s.At(at, func() {
				switch {
				case hooked:
				case link.OnDepart == nil:
					link.OnDepart = release
				default:
					link.OnDepart = nil
				}
			})
		}
	}
	s.Run(0)
	return append(mgr.log, fmt.Sprintf("end at %v, occupancy %s, departures %s", s.Now(), mgr.occupancy(), mgr.departures()))
}

// checkScript compares the two paths on one script.
func checkScript(t *testing.T, data []byte) {
	t.Helper()
	got, want := runScript(data, false), runScript(data, true)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d of %d: computed path\n  %s\nevent path\n  %s", i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("computed path logged %d lines, event path %d", len(got), len(want))
	}
}

// randomScript draws a script of n steps; gaps stay short so the
// buffer fills and arrivals meet departures on the grid.
func randomScript(rng *rand.Rand, n int, controls bool) []byte {
	data := []byte{byte(rng.Intn(256))}
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(5))
		if controls && rng.Intn(8) == 0 {
			op = 5 + byte(rng.Intn(3))
		}
		b1 := byte(rng.Intn(256))
		if rng.Intn(2) == 0 {
			b1 &= 0x1f // a gap of at most 75·u: the buffer fills
		}
		data = append(data, op, b1, byte(rng.Intn(256)))
	}
	return data
}

func TestComputedDeparturesMatchEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		checkScript(t, randomScript(rng, 20+rng.Intn(200), i%3 != 0))
	}
}

func FuzzComputedDeparturesMatchEvents(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for m := 0; m < len(scriptManagers); m++ {
		data := randomScript(rng, 120, true)
		data[0] = byte(m)
		f.Add(data)
	}
	f.Fuzz(checkScript)
}

// TestLinkComputedTieRule pins the one order on which computed
// departures differ from departure events. Packets 1 and 2 arrive
// together at 0, so d1 = T and d2 = 2T for a transmission time T. An
// event E due at T, scheduled before packet 1 arrived, dispatches
// before departure 1 and schedules an arrival X at exactly 2T. The
// event path draws departure 2's sequence number as departure 1 fires,
// after E, so X arrives before departure 2 and finds packet 2 queued;
// the ring drew it at packet 2's arrival, so departure 2 completes
// first.
func TestLinkComputedTieRule(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		s := sim.New()
		mgr := buffer.NewTailDrop(units.KiloBytes(10), 1)
		link := NewLink(s, 1<<23, NewFIFO(), mgr, nil)
		if hooked {
			link.OnDepart = func(p *packet.Packet) {}
		}
		T := units.TransmissionTime(100, 1<<23)
		var occupancy units.Bytes
		s.At(T, func() {
			s.At(2*T, func() {
				link.Receive(&packet.Packet{Flow: 0, Size: 100})
				occupancy = mgr.Total()
			})
		})
		link.Receive(&packet.Packet{Flow: 0, Size: 100})
		link.Receive(&packet.Packet{Flow: 0, Size: 100})
		s.Run(0)
		want := units.Bytes(100) // packet 2 departed before X
		if hooked {
			want = 200 // X found packet 2 still queued
		}
		if occupancy != want {
			t.Errorf("hooked %v: occupancy after X's arrival %v, want %v", hooked, occupancy, want)
		}
	}
}

// TestLinkComputedRunEndsAtLastDeparture: a computing link spends no
// event, and Run settles its departures in order, ending with the
// clock at the last one and the buffer empty.
func TestLinkComputedRunEndsAtLastDeparture(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(8)
	mgr := buffer.NewTailDrop(units.KiloBytes(10), 1)
	col := stats.NewCollector(1, 0)
	link := NewLink(s, rate, NewFIFO(), mgr, col)
	for _, size := range []units.Bytes{500, 1500, 40} {
		link.Receive(&packet.Packet{Flow: 0, Size: size})
	}
	if !link.Busy() || s.Pending() != 0 {
		t.Fatalf("busy %v with %d events pending, want busy with none", link.Busy(), s.Pending())
	}
	s.Run(0)
	want := units.TransmissionTime(500, rate) + units.TransmissionTime(1500, rate) + units.TransmissionTime(40, rate)
	if s.Now() != want || s.Steps() != 0 {
		t.Errorf("Run ended at %v after %d events, want %v after none", s.Now(), s.Steps(), want)
	}
	if mgr.Total() != 0 || link.Busy() || col.Flow(0).Departed.Total().Packets != 3 {
		t.Errorf("after Run: occupancy %v, busy %v, %d departed; want 0, false, 3",
			mgr.Total(), link.Busy(), col.Flow(0).Departed.Total().Packets)
	}
}

// TestLinkComputesWithoutAllocating is the computed path's allocation
// gate: once the ring has grown, a round of pooled arrivals, one of
// them rejected, and their settled departures allocate nothing and
// dispatch no event.
func TestLinkComputesWithoutAllocating(t *testing.T) {
	s := sim.New()
	col := stats.NewCollector(2, 0)
	link := NewLink(s, units.MbitsPerSecond(48), NewFIFO(), buffer.NewTailDrop(2500, 2), col)
	round := func() {
		for i := 0; i < 6; i++ {
			p := s.NewPacket()
			p.Flow, p.Size = i%2, 500
			link.Receive(p)
		}
		s.Run(0)
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("%v allocs per six-arrival round on the computed path, want 0", allocs)
	}
	if s.Steps() != 0 {
		t.Errorf("%d events dispatched, want none", s.Steps())
	}
	departed := col.Flow(0).Departed.Total().Packets + col.Flow(1).Departed.Total().Packets
	if departed != 5*202 {
		t.Errorf("departed %d, want %d", departed, 5*202)
	}
}
