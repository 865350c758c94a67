// Package source implements the traffic sources and edge regulators of
// the paper's simulation setup: Markov-modulated ON-OFF sources, CBR and
// saturating sources, a leaky-bucket shaper (which makes a flow
// conformant, as for flows 0–5 of Table 1), and a token-bucket meter
// that colors packets conformant/excess per the Remark 1 accounting.
package source

import (
	"fmt"
	"math/rand"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// Sink consumes packets emitted by a source or regulator stage.
type Sink interface {
	Receive(p *packet.Packet)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(p *packet.Packet)

// Receive implements Sink.
func (f SinkFunc) Receive(p *packet.Packet) { f(p) }

// newPacket draws a packet from s's pool for a source to emit: created,
// and so far arrived, now.
func newPacket(s *sim.Simulator, flow int, size units.Bytes, seq uint64) *packet.Packet {
	p := s.NewPacket()
	p.Flow, p.Size, p.Seq = flow, size, seq
	p.Created, p.Arrived = s.Now(), s.Now()
	return p
}

// OnOffConfig describes a Markov-modulated ON-OFF source. While ON, the
// source emits back-to-back maximum-size packets at PeakRate; ON and OFF
// holding times are exponential. The configuration is given in the
// paper's terms — peak rate, average rate, and mean burst size — and the
// holding-time means are derived from them:
//
//	E[on]  = MeanBurst·8 / PeakRate
//	E[off] = E[on]·(PeakRate/AvgRate − 1)
type OnOffConfig struct {
	Flow       int
	PacketSize units.Bytes
	PeakRate   units.Rate
	AvgRate    units.Rate
	MeanBurst  units.Bytes
}

// Validate reports configuration errors.
func (c OnOffConfig) Validate() error {
	switch {
	case c.PacketSize <= 0:
		return fmt.Errorf("on-off source: packet size %v must be positive", c.PacketSize)
	case c.PeakRate <= 0:
		return fmt.Errorf("on-off source: peak rate %v must be positive", c.PeakRate)
	case c.AvgRate <= 0 || c.AvgRate > c.PeakRate:
		return fmt.Errorf("on-off source: average rate %v must be in (0, peak=%v]", c.AvgRate, c.PeakRate)
	case c.MeanBurst < c.PacketSize:
		return fmt.Errorf("on-off source: mean burst %v below packet size %v", c.MeanBurst, c.PacketSize)
	}
	return nil
}

// MeanOn returns the mean ON-period duration in seconds.
func (c OnOffConfig) MeanOn() float64 {
	return c.MeanBurst.Bits() / c.PeakRate.BitsPerSecond()
}

// MeanOff returns the mean OFF-period duration in seconds.
func (c OnOffConfig) MeanOff() float64 {
	return c.MeanOn() * (c.PeakRate.BitsPerSecond()/c.AvgRate.BitsPerSecond() - 1)
}

// OnOff is a running Markov-modulated ON-OFF source.
type OnOff struct {
	cfg  OnOffConfig
	sim  *sim.Simulator
	rng  *rand.Rand
	sink Sink
	seq  uint64
	// onUntil is the end of the current ON period; packets are emitted
	// while the clock is strictly before it.
	onUntil float64
	stopped bool
}

// onOffEmit and onOffBeginOn are an OnOff's two re-arm actions as
// event receivers (sim.Handler): converting the source's own pointer to
// one of them allocates nothing, so the source needs no stored callback.
type (
	onOffEmit    OnOff
	onOffBeginOn OnOff
)

func (o *onOffEmit) Fire()    { (*OnOff)(o).emit() }
func (o *onOffBeginOn) Fire() { (*OnOff)(o).beginOn() }

// NewOnOff creates an ON-OFF source delivering packets into sink. It
// panics on an invalid configuration: source parameters come from static
// experiment tables, so a bad value is a programming error.
func NewOnOff(s *sim.Simulator, rng *rand.Rand, cfg OnOffConfig, sink Sink) *OnOff {
	return new(OnOff).Init(s, rng, cfg, sink)
}

// Init sets o up in place exactly as NewOnOff would and returns it. A
// builder of many flows allocates one []OnOff and initializes each
// element, so the sources cost one allocation between them.
func (o *OnOff) Init(s *sim.Simulator, rng *rand.Rand, cfg OnOffConfig, sink Sink) *OnOff {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*o = OnOff{cfg: cfg, sim: s, rng: rng, sink: sink}
	return o
}

// Start begins the ON/OFF cycle. The source starts in the OFF state with
// a randomized residual so that flows do not synchronize.
func (o *OnOff) Start() { o.offPeriod() }

// Stop halts packet generation after any already-scheduled event.
func (o *OnOff) Stop() { o.stopped = true }

// Seq returns the number of packets generated so far.
func (o *OnOff) Seq() uint64 { return o.seq }

// offPeriod schedules the next ON period after an exponential OFF one.
func (o *OnOff) offPeriod() {
	o.sim.AtHandler(o.sim.Now()+sim.Exponential(o.rng, o.cfg.MeanOff()), (*onOffBeginOn)(o))
}

func (o *OnOff) beginOn() {
	if o.stopped {
		return
	}
	d := sim.Exponential(o.rng, o.cfg.MeanOn())
	o.onUntil = o.sim.Now() + d
	o.emit()
}

func (o *OnOff) emit() {
	if o.stopped {
		return
	}
	now := o.sim.Now()
	if now >= o.onUntil {
		o.offPeriod() // ON period over
		return
	}
	p := newPacket(o.sim, o.cfg.Flow, o.cfg.PacketSize, o.seq)
	o.seq++
	o.sink.Receive(p)
	o.sim.AtHandler(o.sim.Now()+units.TransmissionTime(o.cfg.PacketSize, o.cfg.PeakRate), (*onOffEmit)(o))
}

// CBR is a constant-bit-rate source: one packet every Size·8/Rate
// seconds, starting at the configured offset.
type CBR struct {
	Flow       int
	PacketSize units.Bytes
	Rate       units.Rate
	Offset     float64

	sim     *sim.Simulator
	sink    Sink
	seq     uint64
	stopped bool
}

// NewCBR creates a CBR source delivering packets into sink.
func NewCBR(s *sim.Simulator, flow int, size units.Bytes, rate units.Rate, sink Sink) *CBR {
	return new(CBR).Init(s, flow, size, rate, sink)
}

// Init sets c up in place exactly as NewCBR would and returns it, for
// builders that allocate their CBR sources as one []CBR.
func (c *CBR) Init(s *sim.Simulator, flow int, size units.Bytes, rate units.Rate, sink Sink) *CBR {
	if size <= 0 || rate <= 0 {
		panic(fmt.Sprintf("cbr source: invalid size %v or rate %v", size, rate))
	}
	*c = CBR{Flow: flow, PacketSize: size, Rate: rate, sim: s, sink: sink}
	return c
}

// cbrEmit is a CBR's emit action as an event receiver.
type cbrEmit CBR

func (c *cbrEmit) Fire() { (*CBR)(c).emit() }

// Start begins emission.
func (c *CBR) Start() { c.sim.AtHandler(c.sim.Now()+c.Offset, (*cbrEmit)(c)) }

// Stop halts packet generation.
func (c *CBR) Stop() { c.stopped = true }

// Seq returns the number of packets generated so far.
func (c *CBR) Seq() uint64 { return c.seq }

func (c *CBR) emit() {
	if c.stopped {
		return
	}
	p := newPacket(c.sim, c.Flow, c.PacketSize, c.seq)
	c.seq++
	c.sink.Receive(p)
	c.sim.AtHandler(c.sim.Now()+units.TransmissionTime(c.PacketSize, c.Rate), (*cbrEmit)(c))
}

// Saturating is a source that offers traffic at the given rate forever —
// the packetized analogue of the paper's "greedy" flow that always tries
// to occupy its full buffer share. Offering at (or above) the link rate
// keeps the flow's queue pegged at its admission threshold.
type Saturating struct {
	CBR
}

// NewSaturating creates a greedy source offering at rate (typically the
// link rate) into sink.
func NewSaturating(s *sim.Simulator, flow int, size units.Bytes, rate units.Rate, sink Sink) *Saturating {
	g := new(Saturating)
	g.CBR.Init(s, flow, size, rate, sink)
	return g
}
