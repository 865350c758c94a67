package sched

import (
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// TestLinkServesWithoutAllocating is the link's allocation gate, beside
// the kernel's (internal/sim): a pooled packet's whole stay — admission,
// enqueue, the stored departure event, dequeue, release of the buffer
// space and of the packet — allocates nothing, behind FIFO, behind the
// sorted-queue WFQ, EDF and Virtual Clock, and behind DRR, with a
// rejected arrival mixed in.
func TestLinkServesWithoutAllocating(t *testing.T) {
	const flows = 4
	rate := units.MbitsPerSecond(48)
	schedulers := map[string]func(s *sim.Simulator) Scheduler{
		"fifo": func(*sim.Simulator) Scheduler { return NewFIFO() },
		"wfq": func(s *sim.Simulator) Scheduler {
			weights := make([]units.Rate, flows)
			for i := range weights {
				weights[i] = units.Mbps
			}
			return NewWFQ(rate, s.Now, weights)
		},
		"edf": func(s *sim.Simulator) Scheduler {
			return NewEDF(s.Now, []float64{0.01, 0.02, 0.01, 0.03})
		},
		"vc": func(s *sim.Simulator) Scheduler {
			return NewVirtualClock(s.Now, []units.Rate{units.Mbps, 2 * units.Mbps, units.Mbps, 3 * units.Mbps})
		},
		"drr": func(*sim.Simulator) Scheduler {
			return NewDRR([]units.Rate{units.Mbps, 2 * units.Mbps, units.Mbps, 3 * units.Mbps}, 500)
		},
	}
	for name, build := range schedulers {
		s := sim.New()
		col := stats.NewCollector(flows, 0)
		// Room for five packets: each round's sixth arrival is rejected.
		link := NewLink(s, rate, build(s), buffer.NewTailDrop(2500, flows), col)
		seq := uint64(0)
		round := func() {
			for i := 0; i < 6; i++ {
				p := s.NewPacket()
				p.Flow, p.Size, p.Seq = i%flows, 500, seq
				seq++
				link.Receive(p)
			}
			for s.Step() {
			}
		}
		round() // warm the queues, arena and pool
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("%s: %v allocs per six-arrival round in steady state, want 0", name, allocs)
		}
		var departed, dropped int64
		for f := 0; f < flows; f++ {
			departed += col.Flow(f).Departed.Total().Packets
			dropped += col.Flow(f).Dropped.Total().Packets
		}
		if departed != 5*202 || dropped != 202 {
			t.Errorf("%s: departed %d dropped %d, want %d and %d", name, departed, dropped, 5*202, 202)
		}
	}
}
