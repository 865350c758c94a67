package network

import (
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// The oracle for booking deliveries at departure: a sink that books
// each packet ahead of the clock (ReceiveAt at its arrival time, from
// an event at its departure) must end a run exactly where one handed
// every packet by an event at its arrival time (Receive) ends, and
// answer every segment with the same acknowledgement.

// segment is one packet leaving its last link: departure time, flow,
// sequence number and size. created is its source time.
type segment struct {
	depart, created float64
	flow            int
	seq             uint64
	size            units.Bytes
}

// ackRecord is what a runner sees of an acknowledgement.
type ackRecord struct {
	Seq, AckSeq      uint64
	Size             units.Bytes
	Created, Arrived float64
}

// segmentStreams draws nflows segment streams over one shared clock,
// in departure order. Each flow's sequence numbers mostly advance by
// one, but a segment may repeat an earlier one (a duplicate), skip
// ahead (a hole, filled later or never) or swap with the next (out of
// order), as a lossy, retransmitting path delivers them.
func segmentStreams(seed int64, nflows, nseg int) []segment {
	rng := sim.NewRand(seed)
	next := make([]uint64, nflows)
	var segs []segment
	now := 0.0
	for range nseg {
		now += rng.ExpFloat64() * 1e-3
		f := rng.Intn(nflows)
		seq := next[f]
		switch r := rng.Float64(); {
		case r < 0.1 && seq > 0: // duplicate of a recent segment
			seq -= uint64(1 + rng.Intn(int(min(seq, 8))))
		case r < 0.2: // hole: skip ahead, the gap arrives later or never
			seq += uint64(1 + rng.Intn(4))
			next[f] = seq + 1
		case r < 0.3: // out of order: the next one first
			seq++
		default:
			next[f] = seq + 1
		}
		if seq >= next[f] {
			next[f] = seq + 1
		}
		segs = append(segs, segment{
			depart:  now,
			created: now - rng.Float64()*0.01,
			flow:    f,
			seq:     seq,
			size:    units.Bytes(40 + rng.Intn(1460)),
		})
	}
	return segs
}

// deliverAll runs segs through a sink whose flows ≥ nopen are
// closed-loop, each flow f crossing a wire of delay props[f]. Booked,
// each departure event books its packet at its arrival time; otherwise
// each packet's arrival is an event of its own that calls Receive. It
// returns the sink and every flow's acknowledgements in order.
func deliverAll(segs []segment, props []float64, nopen int, booked bool) (*Delivery, [][]ackRecord) {
	s := sim.New()
	d := NewDeliveryLight(s, len(props))
	acks := make([][]ackRecord, len(props))
	for f := nopen; f < len(props); f++ {
		d.SetAcker(f, TCPAckSize, func(ap *packet.Packet) {
			acks[ap.Flow] = append(acks[ap.Flow], ackRecord{ap.Seq, ap.AckSeq, ap.Size, ap.Created, ap.Arrived})
			s.Release(ap)
		})
	}
	receive := d.Receive
	for _, sg := range segs {
		s.At(sg.depart, func() {
			p := s.NewPacket()
			p.Flow, p.Seq, p.Size, p.Created = sg.flow, sg.seq, sg.size, sg.created
			t := sg.depart + props[sg.flow]
			if booked {
				d.ReceiveAt(p, t)
			} else {
				s.AtStampedPacket(t, sg.depart, receive, p)
			}
		})
	}
	s.Run(0)
	return d, acks
}

func TestReceiveAtMatchesReceiveEvents(t *testing.T) {
	const nflows, nopen = 12, 4
	for seed := int64(1); seed <= 20; seed++ {
		segs := segmentStreams(seed, nflows, 3000)
		rng := sim.NewRand(-seed)
		props := make([]float64, nflows)
		for f := range props {
			props[f] = 0.02 * rng.Float64()
		}
		ev, evAcks := deliverAll(segs, props, nopen, false)
		bk, bkAcks := deliverAll(segs, props, nopen, true)
		dups := int64(0)
		for f := range nflows {
			if ev.Packets(f) != bk.Packets(f) || ev.Bytes(f) != bk.Bytes(f) ||
				ev.dsum[f] != bk.dsum[f] || ev.MaxDelay(f) != bk.MaxDelay(f) ||
				ev.Goodput(f) != bk.Goodput(f) || ev.Duplicates(f) != bk.Duplicates(f) {
				t.Fatalf("seed %d flow %d: events %d pkts %v, delay sum %v max %v, goodput %+v, %d dups; booked %d pkts %v, delay sum %v max %v, goodput %+v, %d dups",
					seed, f, ev.Packets(f), ev.Bytes(f), ev.dsum[f], ev.MaxDelay(f), ev.Goodput(f), ev.Duplicates(f),
					bk.Packets(f), bk.Bytes(f), bk.dsum[f], bk.MaxDelay(f), bk.Goodput(f), bk.Duplicates(f))
			}
			dups += ev.Duplicates(f)
			if len(evAcks[f]) != len(bkAcks[f]) {
				t.Fatalf("seed %d flow %d: %d ACKs by events, %d booked", seed, f, len(evAcks[f]), len(bkAcks[f]))
			}
			for i := range evAcks[f] {
				if evAcks[f][i] != bkAcks[f][i] {
					t.Fatalf("seed %d flow %d ACK %d: events %+v, booked %+v", seed, f, i, evAcks[f][i], bkAcks[f][i])
				}
			}
			if (f < nopen) != (len(evAcks[f]) == 0) {
				t.Fatalf("seed %d flow %d: %d ACKs, want them exactly for closed-loop flows", seed, f, len(evAcks[f]))
			}
		}
		if dups == 0 {
			t.Fatalf("seed %d: no duplicate reached a receiver; the streams do not exercise reassembly", seed)
		}
	}
}

// TestReceiveAtTieRule pins the one order a booked delivery changes
// (Delivery's doc). A segment departs at d and arrives at t = d+P; its
// ACK is due at t+δ stamped t. An event X at t that runs before the
// delivery's own event would have (it was scheduled before d) schedules
// E δ later: E is due at t+δ with stamp t too. With a delivery event,
// the ACK is scheduled after E and runs after it; booked at d, the ACK
// holds an earlier sequence number and runs first.
func TestReceiveAtTieRule(t *testing.T) {
	const d, P, δ = 1.0, 0.5, 0.25
	for _, booked := range []bool{false, true} {
		s := sim.New()
		sink := NewDeliveryLight(s, 1)
		var order []string
		feedback := func(ap *packet.Packet) {
			order = append(order, "ack")
			s.Release(ap)
		}
		sink.SetAcker(0, TCPAckSize, func(ap *packet.Packet) {
			s.AtStampedPacket(ap.Created+δ, ap.Created, feedback, ap)
		})
		s.At(d+P, func() { // X
			s.After(δ, func() { order = append(order, "E") })
		})
		s.At(d, func() {
			p := s.NewPacket()
			if booked {
				sink.ReceiveAt(p, d+P)
			} else {
				s.AfterPacket(P, sink.Receive, p)
			}
		})
		s.Run(0)
		want := "E ack"
		if booked {
			want = "ack E"
		}
		if got := strings.Join(order, " "); got != want {
			t.Errorf("booked %v: order %s, want %s", booked, got, want)
		}
	}
}
