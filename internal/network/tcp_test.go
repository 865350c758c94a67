package network

import (
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
)

func TestDeliveryAckerReordersAndCounts(t *testing.T) {
	s := sim.New()
	d := NewDeliveryLight(s, 2)
	var acks []uint64
	d.SetAcker(1, 40, func(p *packet.Packet) {
		if !p.Ack || p.Size != 40 || p.Flow != 1 {
			t.Fatalf("malformed ack %+v", p)
		}
		acks = append(acks, p.AckSeq)
	})
	recv := func(seq uint64) {
		d.Receive(&packet.Packet{Flow: 1, Size: 500, Seq: seq})
	}
	// In order, a gap, the gap's dupacks, the fill, a stale duplicate.
	recv(0)
	recv(2) // hole at 1: held out of order
	recv(3)
	recv(1) // fills the hole: cumulative jump to 4
	recv(1) // stale copy
	want := []uint64{1, 1, 1, 4, 4}
	if len(acks) != len(want) {
		t.Fatalf("acks %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks %v, want %v", acks, want)
		}
	}
	if g := d.Goodput(1); g.Packets != 4 || g.Bytes != 2000 {
		t.Errorf("goodput %+v, want 4 pkts / 2000 B", g)
	}
	if d.Duplicates(1) != 1 {
		t.Errorf("duplicates %d, want 1", d.Duplicates(1))
	}
	// Raw delivery counters still include the duplicate copy.
	if d.Packets(1) != 5 {
		t.Errorf("raw delivered %d, want 5", d.Packets(1))
	}
	// Unregistered flows report zero goodput.
	if g := d.Goodput(0); g.Packets != 0 {
		t.Errorf("flow 0 goodput %+v", g)
	}
}
