package source

import (
	"fmt"
	"math"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// bucket is a token bucket with byte-granularity tokens accumulating at
// a fixed rate, shared by the shaper and the meter.
type bucket struct {
	rate   units.Rate // token accumulation rate, bits/s
	depth  float64    // σ in bytes
	tokens float64    // current level in bytes
	last   float64    // time of last refill
}

func newBucket(rate units.Rate, depth units.Bytes) *bucket {
	return &bucket{rate: rate, depth: float64(depth), tokens: float64(depth)}
}

// refill advances the bucket to time now.
func (b *bucket) refill(now float64) {
	if now < b.last {
		panic(fmt.Sprintf("token bucket: time went backwards: %v < %v", now, b.last))
	}
	b.tokens = math.Min(b.depth, b.tokens+b.rate.BytesPerSecond()*(now-b.last))
	b.last = now
}

// tokenEpsilon absorbs float rounding in token accounting: a shortfall
// below this many bytes counts as "enough". Without it, a release event
// can be scheduled for a delay so small the clock does not advance,
// wedging the event loop at a single instant.
const tokenEpsilon = 1e-6

// timeUntil returns how long from now until the bucket holds at least
// want bytes of tokens (0 if it already does). It returns +Inf when the
// bucket can never hold that many.
func (b *bucket) timeUntil(want float64) float64 {
	if b.tokens >= want-tokenEpsilon {
		return 0
	}
	if want > b.depth+tokenEpsilon {
		return math.Inf(1)
	}
	return (want - b.tokens) / b.rate.BytesPerSecond()
}

// take consumes want bytes of tokens, clamping at zero to absorb the
// epsilon tolerance of timeUntil.
func (b *bucket) take(want float64) {
	b.tokens = math.Max(0, b.tokens-want)
}

// pktQueue is the shapers' unbounded FIFO shaping queue, in the shape
// of sched.FIFO: a head index instead of re-slicing from the front, so
// the backing array's capacity is reused rather than consumed, and each
// consumed slot is cleared so the queue never pins a packet it has
// handed on (which the pool may already have recycled).
type pktQueue struct {
	q    []*packet.Packet
	head int
}

func (f *pktQueue) len() int { return len(f.q) - f.head }

func (f *pktQueue) push(p *packet.Packet) { f.q = append(f.q, p) }

// front returns the head packet; the queue must not be empty.
func (f *pktQueue) front() *packet.Packet { return f.q[f.head] }

// pop drops the head packet, rewinding when the queue empties and
// compacting once the dead prefix dominates a standing backlog.
func (f *pktQueue) pop() {
	f.q[f.head] = nil
	f.head++
	switch {
	case f.head == len(f.q):
		f.q, f.head = f.q[:0], 0
	case f.head > 64 && f.head*2 >= len(f.q):
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
}

// Shaper is a leaky-bucket regulator: it delays packets so that its
// output conforms to the (σ, ρ) profile. The paper uses shapers to make
// flows 0–5 of Table 1 conformant ("their traffic regulated by a leaky
// bucket with parameters corresponding to their traffic profile").
//
// Packets that must wait are held in an unbounded FIFO shaping queue —
// shaping happens at the network edge, before the multiplexer whose
// buffer is under study. Forwarded packets are stamped Conformant and
// their Arrived time is set to the release time.
type Shaper struct {
	spec packet.FlowSpec
	sim  *sim.Simulator
	sink Sink
	bkt  *bucket
	q    pktQueue
	busy bool // a release event is scheduled
	// releaseFn is s.release, bound once: the shaper re-arms with it
	// for every delayed packet.
	releaseFn func()
}

// NewShaper creates a leaky-bucket shaper for the given profile. The
// bucket must be at least one packet deep or nothing can ever pass; the
// caller's specs come from experiment tables, so violations panic.
func NewShaper(s *sim.Simulator, spec packet.FlowSpec, sink Sink) *Shaper {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	sh := &Shaper{
		spec: spec,
		sim:  s,
		sink: sink,
		bkt:  newBucket(spec.TokenRate, spec.BucketSize),
	}
	sh.releaseFn = sh.release
	return sh
}

// Backlog returns the number of packets waiting in the shaping queue.
func (s *Shaper) Backlog() int { return s.q.len() }

// Receive implements Sink.
func (s *Shaper) Receive(p *packet.Packet) {
	if float64(p.Size) > s.bkt.depth {
		panic(fmt.Sprintf("shaper: packet %v larger than bucket depth %v", p.Size, s.spec.BucketSize))
	}
	s.q.push(p)
	if !s.busy {
		s.release()
	}
}

// release forwards the head packet as soon as the bucket allows, then
// re-arms for the next one.
func (s *Shaper) release() {
	now := s.sim.Now()
	s.bkt.refill(now)
	head := s.q.front()
	wait := s.bkt.timeUntil(float64(head.Size))
	if wait > 0 {
		s.busy = true
		s.sim.After(wait, s.releaseFn)
		return
	}
	s.bkt.take(float64(head.Size))
	s.q.pop()
	head.Conformant = true
	head.Arrived = now
	s.sink.Receive(head)
	if s.q.len() > 0 {
		s.busy = true
		s.sim.After(s.bkt.timeUntil(float64(s.q.front().Size)), s.releaseFn)
		return
	}
	s.busy = false
}

// Meter is a token-bucket marker: it colors packets Conformant when the
// bucket holds enough tokens (consuming them) and excess otherwise
// (consuming nothing), then forwards them without delay. This is the
// green/red coloring of Remark 1.
type Meter struct {
	spec packet.FlowSpec
	sim  *sim.Simulator
	sink Sink
	bkt  *bucket
	// Green and Red count marked bytes, for conformance accounting.
	Green units.Bytes
	Red   units.Bytes
}

// NewMeter creates a coloring meter for the given profile.
func NewMeter(s *sim.Simulator, spec packet.FlowSpec, sink Sink) *Meter {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Meter{spec: spec, sim: s, sink: sink, bkt: newBucket(spec.TokenRate, spec.BucketSize)}
}

// BurstPotential returns the flow's current burst potential σ(t) — the
// token-pool level of equation (3) of the paper — in bytes.
func (m *Meter) BurstPotential() units.Bytes {
	m.bkt.refill(m.sim.Now())
	return units.Bytes(m.bkt.tokens)
}

// Receive implements Sink.
func (m *Meter) Receive(p *packet.Packet) {
	m.bkt.refill(m.sim.Now())
	if m.bkt.tokens >= float64(p.Size)-tokenEpsilon {
		m.bkt.take(float64(p.Size))
		p.Conformant = true
		m.Green += p.Size
	} else {
		p.Conformant = false
		m.Red += p.Size
	}
	p.Arrived = m.sim.Now()
	m.sink.Receive(p)
}

// Recorder is a Sink that stores every packet it receives, with the
// receipt time. It is a test and measurement helper.
type Recorder struct {
	sim     *sim.Simulator
	Packets []*packet.Packet
	Times   []float64
}

// NewRecorder returns a recording sink bound to the simulator clock.
func NewRecorder(s *sim.Simulator) *Recorder { return &Recorder{sim: s} }

// Receive implements Sink.
func (r *Recorder) Receive(p *packet.Packet) {
	r.Packets = append(r.Packets, p)
	r.Times = append(r.Times, r.sim.Now())
}

// TotalBytes returns the volume received.
func (r *Recorder) TotalBytes() units.Bytes {
	var total units.Bytes
	for _, p := range r.Packets {
		total += p.Size
	}
	return total
}

// ConformsTo checks the recorded arrival sequence against a (σ, ρ)
// envelope: for every pair i ≤ j, the volume in [t_i, t_j] must not
// exceed σ + ρ·(t_j − t_i) + slack. It returns the first violation found.
func (r *Recorder) ConformsTo(spec packet.FlowSpec, slack units.Bytes) error {
	// Prefix sums of bytes, so volume(i..j) is O(1).
	prefix := make([]units.Bytes, len(r.Packets)+1)
	for i, p := range r.Packets {
		prefix[i+1] = prefix[i] + p.Size
	}
	rho := spec.TokenRate.BytesPerSecond()
	sigma := float64(spec.BucketSize)
	for i := 0; i < len(r.Packets); i++ {
		for j := i; j < len(r.Packets); j++ {
			vol := float64(prefix[j+1] - prefix[i])
			allowed := sigma + rho*(r.Times[j]-r.Times[i]) + float64(slack)
			// Tolerance of half a byte: far below packet granularity,
			// but wide enough to absorb accumulated float rounding.
			if vol > allowed+0.5 {
				return fmt.Errorf("envelope violated on [%v, %v]: %v bytes > %v allowed",
					r.Times[i], r.Times[j], vol, allowed)
			}
		}
	}
	return nil
}
