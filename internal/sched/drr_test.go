package sched

import (
	"math"
	"testing"
	"testing/quick"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

func TestDRREqualWeightsAlternate(t *testing.T) {
	d := NewDRR([]units.Rate{units.Mbps, units.Mbps}, 500)
	for i := 0; i < 6; i++ {
		d.Enqueue(mkPkt(i%2, 500, uint64(i)))
	}
	// Equal quanta and equal sizes: strict alternation.
	var flows []int
	for p := d.Dequeue(); p != nil; p = d.Dequeue() {
		flows = append(flows, p.Flow)
	}
	for i := 1; i < len(flows); i++ {
		if flows[i] == flows[i-1] {
			t.Fatalf("no alternation: %v", flows)
		}
	}
}

func TestDRRWeightedSharesEndToEnd(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(48)
	d := NewDRR([]units.Rate{3 * units.Mbps, units.Mbps}, 500)
	var got [2]units.Bytes
	link := NewLink(s, rate, d, buffer.NewTailDrop(1<<60, 2), nil)
	link.OnDepart = func(p *packet.Packet) { got[p.Flow] += p.Size }
	for i := 0; i < 2; i++ {
		src := source.NewCBR(s, i, 500, rate, link)
		src.Start()
	}
	s.RunUntil(2)
	ratio := float64(got[0]) / float64(got[1])
	if math.Abs(ratio-3) > 0.1 {
		t.Errorf("3:1 weights served ratio %.3f", ratio)
	}
}

func TestDRRWorkConserving(t *testing.T) {
	s := sim.New()
	rate := units.MbitsPerSecond(8)
	d := NewDRR([]units.Rate{units.Mbps, 4 * units.Mbps}, 500)
	var delivered units.Bytes
	link := NewLink(s, rate, d, buffer.NewTailDrop(units.KiloBytes(50), 2), nil)
	link.OnDepart = func(p *packet.Packet) { delivered += p.Size }
	src := source.NewCBR(s, 0, 500, 2*rate, link)
	src.Start()
	const dur = 1.0
	s.RunUntil(dur)
	if float64(delivered) < rate.BytesPerSecond()*dur-1500 {
		t.Errorf("DRR idled while backlogged: delivered %v", delivered)
	}
}

func TestDRRPerFlowFIFO(t *testing.T) {
	d := NewDRR([]units.Rate{units.Mbps}, 500)
	for i := 0; i < 5; i++ {
		d.Enqueue(mkPkt(0, 500, uint64(i)))
	}
	for i := 0; i < 5; i++ {
		if p := d.Dequeue(); p.Seq != uint64(i) {
			t.Fatalf("order violated: got %d want %d", p.Seq, i)
		}
	}
	if d.Dequeue() != nil {
		t.Fatal("drained DRR returned a packet")
	}
}

func TestDRRVariablePacketSizes(t *testing.T) {
	// The deficit mechanism must not starve a flow with large packets:
	// flow 0 sends 1500B packets, flow 1 sends 100B, equal weights with
	// a small MTU quantum. Over a long run both get equal bytes.
	d := NewDRR([]units.Rate{units.Mbps, units.Mbps}, 200)
	for i := 0; i < 300; i++ {
		d.Enqueue(mkPkt(0, 1500, uint64(i)))
		for j := 0; j < 15; j++ {
			d.Enqueue(mkPkt(1, 100, uint64(i*15+j)))
		}
	}
	// Serve a budget well below the enqueued volume.
	var served [2]units.Bytes
	for total := units.Bytes(0); total < 200000; {
		p := d.Dequeue()
		if p == nil {
			break
		}
		served[p.Flow] += p.Size
		total += p.Size
	}
	ratio := float64(served[0]) / float64(served[1])
	if math.Abs(ratio-1) > 0.1 {
		t.Errorf("byte-fairness ratio %.3f with mixed packet sizes, want ≈ 1", ratio)
	}
}

func TestDRRValidation(t *testing.T) {
	if d := NewDRR(nil, 500); d.Dequeue() != nil || d.Len() != 0 {
		t.Error("a DRR over no flows is not empty")
	}
	for i, f := range []func(){
		func() { NewDRR([]units.Rate{0}, 500) },
		func() { NewDRR([]units.Rate{units.Mbps}, 0) },
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

// Property: DRR conserves packets under random interleavings.
func TestPropertyDRRConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDRR([]units.Rate{units.Mbps, 2 * units.Mbps, 5 * units.Mbps}, 300)
		next := make([]uint64, 3)
		seqs := make([]uint64, 3)
		inFlight := 0
		for _, op := range ops {
			flow := int(op) % 3
			if op%3 == 0 && inFlight > 0 {
				p := d.Dequeue()
				if p == nil {
					return false
				}
				if p.Seq != next[p.Flow] {
					return false
				}
				next[p.Flow]++
				inFlight--
			} else {
				d.Enqueue(mkPkt(flow, units.Bytes(op%1200)+100, seqs[flow]))
				seqs[flow]++
				inFlight++
			}
			if d.Len() != inFlight {
				return false
			}
		}
		for p := d.Dequeue(); p != nil; p = d.Dequeue() {
			if p.Seq != next[p.Flow] {
				return false
			}
			next[p.Flow]++
			inFlight--
		}
		return inFlight == 0 && d.Len() == 0 && d.Backlog() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
