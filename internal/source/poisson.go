package source

import (
	"fmt"
	"math/rand"

	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// Poisson is a memoryless packet source: fixed-size packets with
// exponential inter-arrival times at the given mean rate. It is the
// classic teletraffic null model — smoother than the Markov ON-OFF
// sources the paper uses, and useful as a best-case traffic contrast
// in sensitivity experiments.
type Poisson struct {
	flow       int
	packetSize units.Bytes
	mean       float64 // mean inter-arrival, seconds

	sim     *sim.Simulator
	rng     *rand.Rand
	sink    Sink
	seq     uint64
	stopped bool
	emitFn  func() // p.emit, bound once
}

// NewPoisson creates a Poisson source with the given average rate.
func NewPoisson(s *sim.Simulator, rng *rand.Rand, flow int, size units.Bytes, rate units.Rate, sink Sink) *Poisson {
	if size <= 0 || rate <= 0 {
		panic(fmt.Sprintf("poisson source: invalid size %v or rate %v", size, rate))
	}
	if rng == nil || sink == nil {
		panic("poisson source: nil rng or sink")
	}
	p := &Poisson{
		flow:       flow,
		packetSize: size,
		mean:       size.Bits() / rate.BitsPerSecond(),
		sim:        s,
		rng:        rng,
		sink:       sink,
	}
	p.emitFn = p.emit
	return p
}

// Start begins emission with a randomized first arrival.
func (p *Poisson) Start() {
	p.sim.After(sim.Exponential(p.rng, p.mean), p.emitFn)
}

// Stop halts packet generation.
func (p *Poisson) Stop() { p.stopped = true }

// Seq returns the number of packets generated so far.
func (p *Poisson) Seq() uint64 { return p.seq }

func (p *Poisson) emit() {
	if p.stopped {
		return
	}
	p.sink.Receive(newPacket(p.sim, p.flow, p.packetSize, p.seq))
	p.seq++
	p.sim.After(sim.Exponential(p.rng, p.mean), p.emitFn)
}
