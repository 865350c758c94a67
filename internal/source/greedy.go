package source

import (
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// FeedbackGreedy is the packetized analogue of the paper's greedy flow
// in §2.1/Example 1: a source that always keeps its buffer occupancy at
// its admission limit ("its arrival process is such that Q₂(t) = B₂ for
// all t ≥ 0"). It watches the buffer manager and, whenever its
// occupancy drops below the target, immediately injects packets to top
// it back up.
//
// Unlike a CBR offering at the link rate (open loop), this source
// adapts perfectly: it never wastes offered packets and keeps the
// occupancy pinned regardless of how fast the queue drains, which is
// the exact adversary the propositions are proved against.
type FeedbackGreedy struct {
	flow       int
	packetSize units.Bytes
	sim        *sim.Simulator
	mgr        buffer.Manager
	sink       Sink
	seq        uint64
	// Injected counts the packets actually admitted.
	Injected uint64
}

// NewFeedbackGreedy creates a greedy source for flow. mgr must be the
// same buffer manager the sink's link uses: the source reads its own
// occupancy from it. Call Kick after the topology is wired, and again
// from the link's OnDepart/OnDrop hooks (Attach does this wiring).
func NewFeedbackGreedy(s *sim.Simulator, flow int, size units.Bytes, mgr buffer.Manager, sink Sink) *FeedbackGreedy {
	if size <= 0 {
		panic(fmt.Sprintf("greedy source: invalid packet size %v", size))
	}
	if mgr == nil || sink == nil {
		panic("greedy source: nil manager or sink")
	}
	return &FeedbackGreedy{flow: flow, packetSize: size, sim: s, mgr: mgr, sink: sink}
}

// Kick injects packets until the buffer manager refuses one. It is
// idempotent and cheap when the flow is already at its limit.
func (g *FeedbackGreedy) Kick() {
	for {
		before := g.mgr.Occupancy(g.flow)
		p := newPacket(g.sim, g.flow, g.packetSize, g.seq)
		g.seq++
		g.sink.Receive(p)
		if g.mgr.Occupancy(g.flow) == before {
			// Not admitted: the flow is at its limit.
			return
		}
		g.Injected++
	}
}

// DepartureHook returns a function suitable for sched.Link.OnDepart
// (or OnDrop): it re-tops the greedy flow after every event that frees
// buffer space. Chain it with any existing hook at the caller.
func (g *FeedbackGreedy) DepartureHook() func(p *packet.Packet) {
	return func(*packet.Packet) { g.Kick() }
}
