package source

import (
	"fmt"
	"math"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// DualShaper is a dual-leaky-bucket regulator: it delays packets so the
// output conforms to BOTH the (σ, ρ) token-bucket profile and a peak
// rate P (enforced as a second bucket of one-MTU depth refilled at P).
// §2.3's note observes that adding a peak-rate limit to the source
// leaves the paper's buffer results unchanged; this shaper lets
// experiments feed the multiplexer exactly such peak-limited conformant
// traffic instead of the instantaneous bursts a plain Shaper emits.
type DualShaper struct {
	spec packet.FlowSpec
	sim  *sim.Simulator
	sink Sink
	tkn  *bucket // (σ, ρ)
	peak *bucket // (MTU, P)
	q    pktQueue
	busy bool
	// releaseFn is d.release, bound once.
	releaseFn func()
}

// NewDualShaper creates the regulator. spec must carry a positive
// PeakRate; mtu bounds the packet size (and sets the peak bucket's
// depth, i.e. back-to-back transmission is limited to one packet).
func NewDualShaper(s *sim.Simulator, spec packet.FlowSpec, mtu units.Bytes, sink Sink) *DualShaper {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.PeakRate <= 0 {
		panic(fmt.Sprintf("dual shaper: need a peak rate, got %v", spec.PeakRate))
	}
	if mtu <= 0 {
		panic(fmt.Sprintf("dual shaper: invalid MTU %v", mtu))
	}
	d := &DualShaper{
		spec: spec,
		sim:  s,
		sink: sink,
		tkn:  newBucket(spec.TokenRate, spec.BucketSize),
		peak: newBucket(spec.PeakRate, mtu),
	}
	d.releaseFn = d.release
	return d
}

// Backlog returns the number of packets waiting in the shaping queue.
func (d *DualShaper) Backlog() int { return d.q.len() }

// Receive implements Sink.
func (d *DualShaper) Receive(p *packet.Packet) {
	if float64(p.Size) > d.tkn.depth {
		panic(fmt.Sprintf("dual shaper: packet %v larger than bucket depth %v", p.Size, d.spec.BucketSize))
	}
	if float64(p.Size) > d.peak.depth {
		panic(fmt.Sprintf("dual shaper: packet %v larger than MTU %v", p.Size, units.Bytes(d.peak.depth)))
	}
	d.q.push(p)
	if !d.busy {
		d.release()
	}
}

func (d *DualShaper) release() {
	now := d.sim.Now()
	d.tkn.refill(now)
	d.peak.refill(now)
	head := d.q.front()
	wait := math.Max(d.tkn.timeUntil(float64(head.Size)), d.peak.timeUntil(float64(head.Size)))
	if wait > 0 {
		d.busy = true
		d.sim.After(wait, d.releaseFn)
		return
	}
	d.tkn.take(float64(head.Size))
	d.peak.take(float64(head.Size))
	d.q.pop()
	head.Conformant = true
	head.Arrived = now
	d.sink.Receive(head)
	if d.q.len() > 0 {
		size := float64(d.q.front().Size)
		d.busy = true
		d.sim.After(math.Max(d.tkn.timeUntil(size), d.peak.timeUntil(size)), d.releaseFn)
		return
	}
	d.busy = false
}
