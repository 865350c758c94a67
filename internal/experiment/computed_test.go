package experiment

import (
	"fmt"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// TestComputedDeparturesMatchEventPath runs Table 1 on every FIFO
// manager at three buffers over eight seeds twice: once as Run does,
// where the FIFO link computes its departures, and once with an
// OnDepart hook that only releases the packet, which holds the link to
// one departure event per packet. Every Result must be bit-identical
// (delays tracked), and the computed run must dispatch exactly one
// event fewer per departure.
func TestComputedDeparturesMatchEventPath(t *testing.T) {
	specs := []string{
		"fifo+none", "fifo+threshold", "fifo+threshold?scale=0.5", "fifo+sharing",
		"fifo+dynthresh", "fifo+red", "fifo+adaptive",
	}
	buffers := []units.Bytes{units.KiloBytes(100), units.KiloBytes(500), units.MegaBytes(1)}
	for _, spec := range specs {
		for _, b := range buffers {
			for seed := int64(1); seed <= 8; seed++ {
				name := fmt.Sprintf("%s/%v/seed%d", spec, b, seed)
				o := &Options{
					Flows:       Table1Flows(),
					SchemeSpec:  spec,
					Buffer:      b,
					Headroom:    b / 4,
					Duration:    1,
					TrackDelays: true,
				}
				WithWarmup(0.1)(o)
				WithSeed(seed)(o)

				computed, err := NewPlane(o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				computed.Sim.RunUntil(o.Duration)

				events, err := NewPlane(o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s := events.Sim
				departed := uint64(0)
				events.Link.OnDepart = func(p *packet.Packet) {
					departed++
					s.Release(p)
				}
				s.RunUntil(o.Duration)

				compareGolden(t, name, toGolden(events.Result()), toGolden(computed.Result()))
				if got, want := computed.Sim.Steps(), s.Steps()-departed; got != want {
					t.Errorf("%s: %d events computed, want %d (%d on the event path less %d departures)",
						name, got, want, s.Steps(), departed)
				}
			}
		}
	}
}
