package sched

import (
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

func TestPushoutBasicFIFO(t *testing.T) {
	po := buffer.NewPushoutFIFO(10000, []units.Bytes{5000, 5000})
	for i := 0; i < 4; i++ {
		p := mkPkt(i%2, 500, uint64(i))
		if !po.Admit(p.Flow, p.Size) {
			t.Fatalf("admit %d failed with free space", i)
		}
		po.Enqueue(p)
	}
	for i := 0; i < 4; i++ {
		p := po.Dequeue()
		if p == nil || p.Seq != uint64(i) {
			t.Fatalf("dequeue %d: %v", i, p)
		}
		po.Release(p.Flow, p.Size)
	}
	if po.Dequeue() != nil || po.Total() != 0 {
		t.Error("drain incomplete")
	}
}

func TestPushoutEvictsOverShareFlow(t *testing.T) {
	po := buffer.NewPushoutFIFO(2000, []units.Bytes{1000, 1000})
	var pushed []*packet.Packet
	po.SetOnPushout(func(p *packet.Packet) { pushed = append(pushed, p) })
	// Flow 1 fills the whole buffer (allowed: admission only protects
	// when full).
	for i := 0; i < 4; i++ {
		p := mkPkt(1, 500, uint64(i))
		if !po.Admit(1, 500) {
			t.Fatalf("fill admit %d failed", i)
		}
		po.Enqueue(p)
	}
	// Flow 0 (below its share) arrives into the full buffer: flow 1's
	// NEWEST packet is pushed out.
	p := mkPkt(0, 500, 100)
	if !po.Admit(0, 500) {
		t.Fatal("protected arrival rejected")
	}
	po.Enqueue(p)
	if len(pushed) != 1 || pushed[0].Flow != 1 || pushed[0].Seq != 3 {
		t.Fatalf("pushed %v, want flow 1 seq 3 (newest)", pushed)
	}
	if po.Occupancy(1) != 1500 || po.Occupancy(0) != 500 || po.Total() != 2000 {
		t.Errorf("occupancies %v/%v", po.Occupancy(0), po.Occupancy(1))
	}
	// Service order: flow 1's surviving packets (0,1,2) then flow 0's.
	want := []struct {
		flow int
		seq  uint64
	}{{1, 0}, {1, 1}, {1, 2}, {0, 100}}
	for i, w := range want {
		got := po.Dequeue()
		if got == nil || got.Flow != w.flow || got.Seq != w.seq {
			t.Fatalf("dequeue %d: got %v, want flow %d seq %d", i, got, w.flow, w.seq)
		}
		po.Release(got.Flow, got.Size)
	}
}

func TestPushoutOverShareArrivalRejected(t *testing.T) {
	po := buffer.NewPushoutFIFO(1000, []units.Bytes{500, 500})
	for i := 0; i < 2; i++ {
		po.Admit(0, 500)
		po.Enqueue(mkPkt(0, 500, uint64(i)))
	}
	// Flow 0 is at 1000 > share 500; its next arrival must not push
	// anyone (and there is nobody over-share but itself).
	if po.Admit(0, 500) {
		t.Fatal("over-share flow pushed out a victim")
	}
	// Flow 1's arrival pushes flow 0's newest.
	if !po.Admit(1, 500) {
		t.Fatal("protected flow rejected")
	}
}

func TestPushoutCannotEvictPacketInService(t *testing.T) {
	// Only one packet total, and it has been dequeued (in service):
	// occupancy is still held but nothing is queued to push.
	po := buffer.NewPushoutFIFO(500, []units.Bytes{250, 250})
	po.Admit(1, 500)
	po.Enqueue(mkPkt(1, 500, 0))
	if po.Dequeue() == nil {
		t.Fatal("dequeue failed")
	}
	// Buffer still accounts the in-service packet; flow 0 cannot evict it.
	if po.Admit(0, 250) {
		t.Fatal("pushed out a packet that already left the queue")
	}
}

func TestPushoutProtectsConformantEndToEnd(t *testing.T) {
	// The reference-[2] claim: pushout gives tail-drop utilization AND
	// protection. Conformant 8 Mb/s CBR vs saturating aggressor.
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	bufSize := units.KiloBytes(200)
	shares := []units.Bytes{units.Bytes(float64(bufSize) * 8 / 48), units.Bytes(float64(bufSize) * 40 / 48)}
	po := buffer.NewPushoutFIFO(bufSize, shares)
	col := stats.NewCollector(2, 1)
	link := NewLink(s, rate, po, po, col)

	victim := source.NewCBR(s, 0, 500, units.MbitsPerSecond(8), link)
	victim.Start()
	agg := source.NewCBR(s, 1, 500, rate, link)
	agg.Start()
	const dur = 10.0
	s.RunUntil(dur)

	// Protection: the conformant flow delivers ≈ its rate.
	thr := col.FlowThroughput(0, dur)
	if thr.BitsPerSecond() < 8e6*0.97 {
		t.Errorf("conformant flow got %v, want ≈ 8Mb/s", thr)
	}
	// Utilization: the link stays full (tail-drop-like efficiency).
	agg2 := col.AggregateThroughput(dur)
	if agg2.BitsPerSecond() < 48e6*0.99 {
		t.Errorf("aggregate %v, want ≈ full link", agg2)
	}
}

func TestPushoutValidation(t *testing.T) {
	if po := buffer.NewPushoutFIFO(100, nil); po.Dequeue() != nil || po.NumFlows() != 0 {
		t.Error("a pushout FIFO over no flows is not empty")
	}
	for i, f := range []func(){
		func() { buffer.NewPushoutFIFO(0, []units.Bytes{100}) },
		func() { buffer.NewPushoutFIFO(100, []units.Bytes{-1}) },
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
	po := buffer.NewPushoutFIFO(100, []units.Bytes{100})
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	po.Release(0, 50)
}
