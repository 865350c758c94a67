package buffer

import (
	"reflect"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// queueManager is the surface a link drives a combined queue/manager
// through: admission, then queueing on success.
type queueManager interface {
	Manager
	Enqueue(p *packet.Packet)
	Dequeue() *packet.Packet
	Len() int
	Backlog() units.Bytes
}

// offer admits and queues one packet, as a link's Receive does.
func offer(m queueManager, flow int, size units.Bytes, seq uint64) bool {
	if !m.Admit(flow, size) {
		return false
	}
	m.Enqueue(&packet.Packet{Flow: flow, Size: size, Seq: seq})
	return true
}

// drain dequeues and releases everything, returning the flows served.
func drain(m queueManager) []int {
	var flows []int
	for p := m.Dequeue(); p != nil; p = m.Dequeue() {
		m.Release(p.Flow, p.Size)
		flows = append(flows, p.Flow)
	}
	return flows
}

// collect records pushed-out victims by sequence number.
func collect(m interface {
	SetOnPushout(func(p *packet.Packet))
}) *[]uint64 {
	var seqs []uint64
	m.SetOnPushout(func(p *packet.Packet) { seqs = append(seqs, p.Seq) })
	return &seqs
}

func TestClassGreedyPushesOutNewestOfLowestClass(t *testing.T) {
	// Flow i is class i; four 500-byte packets fill the buffer.
	g := NewClassGreedy(2000, []int{0, 1, 2}, 3)
	pushed := collect(g)
	for i, flow := range []int{1, 0, 0, 1} {
		if !offer(g, flow, 500, uint64(i)) {
			t.Fatalf("fill packet %d rejected", i)
		}
	}
	// Class-2 arrivals take class 0's newest packet first, then its
	// older one, and only then reach up to class 1.
	for i := 4; i < 7; i++ {
		if !offer(g, 2, 500, uint64(i)) {
			t.Fatalf("class-2 arrival %d rejected", i)
		}
	}
	if want := []uint64{2, 1, 3}; !reflect.DeepEqual(*pushed, want) {
		t.Fatalf("pushed out %v, want %v", *pushed, want)
	}
	// A class-1 arrival finds no class strictly below its own, and a
	// class-0 arrival none at all: both are rejected and push nothing.
	if g.Admit(1, 500) || g.Admit(0, 500) {
		t.Fatal("arrival without a lower-class victim admitted")
	}
	if len(*pushed) != 3 || g.Total() != 2000 || g.Occupancy(1) != 500 || g.Occupancy(2) != 1500 {
		t.Errorf("after rejections: pushed %v, total %v, occupancy %v/%v",
			*pushed, g.Total(), g.Occupancy(1), g.Occupancy(2))
	}
	if g.Len() != 4 || g.Backlog() != 2000 {
		t.Errorf("queue holds %d packets, %v bytes; want 4 and 2000", g.Len(), g.Backlog())
	}
	// FIFO service over the survivors.
	if got, want := drain(g), []int{1, 2, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("served flows %v, want %v", got, want)
	}
}

func TestClassSegStrictPriorityEvictsLowestNonEmptyClass(t *testing.T) {
	cs := NewClassSeg(2000, []int{0, 1, 2}, 3)
	pushed := collect(cs)
	for i, flow := range []int{0, 1, 0, 2} {
		if !offer(cs, flow, 500, uint64(i)) {
			t.Fatalf("fill packet %d rejected", i)
		}
	}
	// The class-1 arrival evicts class 0's newest (seq 2); the class-2
	// arrivals then take class 0's last packet (seq 0) and, with class 0
	// empty, class 1's newest (seq 4).
	offer(cs, 1, 500, 4)
	offer(cs, 2, 500, 5)
	offer(cs, 2, 500, 6)
	if want := []uint64{2, 0, 4}; !reflect.DeepEqual(*pushed, want) {
		t.Fatalf("pushed out %v, want %v", *pushed, want)
	}
	// Strict priority: every class-2 packet in arrival order, then
	// class 1.
	var got []uint64
	for p := cs.Dequeue(); p != nil; p = cs.Dequeue() {
		cs.Release(p.Flow, p.Size)
		got = append(got, p.Seq)
	}
	if want := []uint64{3, 5, 6, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("service order %v, want %v", got, want)
	}
	if cs.Total() != 0 || cs.Backlog() != 0 || cs.Len() != 0 {
		t.Errorf("drained queue still holds %v bytes (%v backlog, %d packets)", cs.Total(), cs.Backlog(), cs.Len())
	}
}

func TestMultiQueueQuota(t *testing.T) {
	// Three classes share 3000 bytes as 1000-byte quotas.
	m := NewMultiQueue(3000, []int{0, 1, 2}, 3, false)
	if !offer(m, 0, 500, 0) || !offer(m, 0, 500, 1) {
		t.Fatal("packets within the quota rejected")
	}
	if m.Admit(0, 500) {
		t.Fatal("class 0 admitted beyond its quota")
	}
	if !offer(m, 1, 500, 2) {
		t.Fatal("another class's quota is not its own")
	}
	// The quota counts queued bytes: once a packet is in service its
	// slot is free again, though the buffer still holds its bytes.
	m.Dequeue()
	if !m.Admit(0, 500) {
		t.Fatal("slot of the packet in service not reusable")
	}
	if m.Total() != 2000 || m.Occupancy(0) != 1500 {
		t.Errorf("total %v, class-0 occupancy %v; want 2000 and 1500", m.Total(), m.Occupancy(0))
	}
}

// multiQueueOrder fills class 0 with one 300-byte packet, class 1 with
// two and class 2 with two 400-byte packets, in that arrival order, and
// returns the classes served.
func multiQueueOrder(semi bool) []int {
	m := NewMultiQueue(3000, []int{0, 1, 2}, 3, semi)
	for i, a := range []struct {
		flow int
		size units.Bytes
	}{{0, 300}, {1, 300}, {1, 300}, {2, 400}, {2, 400}} {
		offer(m, a.flow, a.size, uint64(i))
	}
	return drain(m)
}

func TestMultiQueueLQFServesLongestQueue(t *testing.T) {
	// 800 > 600 > 300; then class 1's 600 beats class 2's 400; ties go
	// to the lower class.
	if got, want := multiQueueOrder(false), []int{2, 1, 2, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("LQF served classes %v, want %v", got, want)
	}
}

func TestMultiQueueSemiGreedyRule(t *testing.T) {
	// Above half quota (500 bytes) the fullest queue goes first: class 2
	// at 800, then class 1 at 600. With every queue at or below half
	// quota the oldest head-of-line packet goes: class 0's, then class
	// 1's, then class 2's — where LQF would serve class 2's 400 bytes
	// before class 0.
	if got, want := multiQueueOrder(true), []int{2, 1, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("semigreedy served classes %v, want %v", got, want)
	}
}

// TestPacketInServiceCannotBePushedOut covers the class policies;
// PushoutFIFO's case is internal/sched's
// TestPushoutCannotEvictPacketInService.
func TestPacketInServiceCannotBePushedOut(t *testing.T) {
	// One 500-byte packet fills the buffer and has been dequeued into
	// service: its bytes are still held but nothing is queued to push.
	for name, m := range map[string]interface {
		queueManager
		SetOnPushout(func(p *packet.Packet))
	}{
		"cgreedy":  NewClassGreedy(500, []int{0, 1}, 2),
		"classseg": NewClassSeg(500, []int{0, 1}, 2),
	} {
		pushed := collect(m)
		offer(m, 0, 500, 0)
		if m.Dequeue() == nil {
			t.Fatalf("%s: dequeue failed", name)
		}
		if m.Admit(1, 500) {
			t.Errorf("%s: admitted by pushing out the packet in service", name)
		}
		if len(*pushed) != 0 || m.Occupancy(0) != 500 {
			t.Errorf("%s: pushed %v, flow 0 holds %v", name, *pushed, m.Occupancy(0))
		}
	}
}
