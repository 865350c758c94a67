package source

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// TCP congestion-control constants (RFC 5681 / 6582 / 6298), in the
// segment-granularity form classic simulators use: windows count
// segments, not bytes.
const (
	tcpInitialWindow = 2   // IW, segments
	tcpDupThresh     = 3   // dupacks triggering fast retransmit
	tcpMinSsthresh   = 2   // floor for the multiplicative decrease
	tcpInitialRTO    = 1.0 // seconds, before the first RTT sample
	tcpMinRTO        = 0.2 // seconds (the common simulator value)
	tcpMaxRTO        = 60.0
)

// TCPConfig describes a closed-loop TCP Reno/NewReno source.
type TCPConfig struct {
	Flow int
	// SegmentSize is the size of every data segment (one packet).
	SegmentSize units.Bytes
	// PaceRate spaces new-data emissions at SegmentSize·8/PaceRate —
	// the sender's access-link speed. Typically the flow's peak rate or
	// its first link's rate.
	PaceRate units.Rate
}

// Validate reports configuration errors.
func (c TCPConfig) Validate() error {
	switch {
	case c.SegmentSize <= 0:
		return fmt.Errorf("tcp source: segment size %v must be positive", c.SegmentSize)
	case c.PaceRate <= 0:
		return fmt.Errorf("tcp source: pace rate %v must be positive", c.PaceRate)
	}
	return nil
}

// TCP is a window-based closed-loop source implementing TCP
// Reno/NewReno at segment granularity: slow start, AIMD congestion
// avoidance, fast retransmit / fast recovery on three duplicate
// acknowledgements (with NewReno partial-ack retransmission), and an
// RFC 6298 retransmission timer with Karn's algorithm and exponential
// backoff. It emits data segments into its sink; the network calls
// OnAck with each acknowledgement arriving back from the delivery
// endpoint and OnDrop with each of its segments a buffer manager
// rejected, both on the sender's own kernel at the (propagation-delayed)
// time the notification reaches it. Everything is re-clocked on the sim
// kernel, so a run is deterministic.
//
// Sequence numbers count segments: Seq s is the s-th segment of the
// flow, and a cumulative ACK carrying AckSeq a acknowledges every
// segment with Seq < a. Retransmissions reuse the original Seq.
type TCP struct {
	cfg  TCPConfig
	sim  *sim.Simulator
	sink Sink

	una uint64 // lowest unacknowledged sequence number
	nxt uint64 // next new sequence number to send

	cwnd     float64 // congestion window, segments
	ssthresh float64 // slow-start threshold, segments

	dupAcks int
	recover uint64 // NewReno: highest sequence outstanding at loss detection

	// RTO state (RFC 6298). srtt < 0 means "no sample yet".
	srtt, rttvar, rto float64
	rtoEv             sim.Event

	// sent records each outstanding segment's emission time for RTT
	// sampling and whether it was retransmitted (Karn's algorithm: never
	// sample those). It used to be a pair of maps keyed by sequence
	// number; the flat ring makes the per-ACK bookkeeping loop
	// allocation-free and index-based, which is what lets 10⁶ concurrent
	// sources fit in memory and stay fast (see internal/sizing).
	sent sendRing

	// The three flags sit together so the struct packs without padding:
	// there is one TCP per flow, a sizing cell holds up to 10⁶ of them
	// in one slab, and every byte here is a megabyte there.
	inRecovery bool
	pumping    bool
	stopped    bool

	retransmits int64
	timeouts    int64
	dropsSeen   int64
}

// Pacing and the retransmission timer schedule the sender itself as
// the event's receiver, through one named type per action over the
// same struct: converting t to either allocates nothing, where a
// stored method value would be one heap object per sender per action,
// built before a 10⁴–10⁶-sender cell's clock even starts.
type (
	tcpStep    TCP
	tcpTimeout TCP
)

func (t *tcpStep) Fire()    { (*TCP)(t).step() }
func (t *tcpTimeout) Fire() { (*TCP)(t).onTimeout() }

// tcpRingCap is the send-ring size a sender starts with, the first
// size sendRing.grow picks; TCPs carves it for each sender.
const tcpRingCap = 16

// TCPs returns n zeroed senders in one allocation, each with its first
// tcpRingCap-slot send ring carved from two shared arrays, for a
// builder to Init element by element. A ring outgrowing its carve moves
// to arrays of its own.
func TCPs(n int) []TCP {
	ts := make([]TCP, n)
	times := make([]float64, n*tcpRingCap)
	retx := make([]bool, n*tcpRingCap)
	for i := range ts {
		lo, hi := i*tcpRingCap, (i+1)*tcpRingCap
		ts[i].sent.time = times[lo:hi:hi]
		ts[i].sent.retx = retx[lo:hi:hi]
	}
	return ts
}

// NewTCP creates a TCP source delivering segments into sink. It panics
// on an invalid configuration, like the other sources.
func NewTCP(s *sim.Simulator, cfg TCPConfig, sink Sink) *TCP {
	return TCPs(1)[0].Init(s, cfg, sink)
}

// Init sets t up in place exactly as NewTCP would, keeping the send
// ring TCPs carved for it, and returns it.
func (t *TCP) Init(s *sim.Simulator, cfg TCPConfig, sink Sink) *TCP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	*t = TCP{
		cfg:      cfg,
		sim:      s,
		sink:     sink,
		cwnd:     tcpInitialWindow,
		ssthresh: 1 << 30, // effectively unbounded until the first loss
		srtt:     -1,
		rto:      tcpInitialRTO,
		sent:     sendRing{time: t.sent.time, retx: t.sent.retx},
	}
	return t
}

// sendRing is the per-segment send record of one TCP source: emission
// times and retransmission marks for every sequence number in
// [lo, hi), stored in a power-of-two ring indexed by the sequence
// number itself. lo tracks the cumulative acknowledgement point (una)
// and hi the highest emission, so the ring holds exactly the
// outstanding window — it replaces two maps whose per-ACK
// insert/lookup/delete churn dominated the feedback hot path. The
// ring grows by doubling when the window outruns it; records are never
// cleared individually, validity is the [lo, hi) span.
type sendRing struct {
	time []float64
	retx []bool
	lo   uint64 // lowest live sequence (the cumulative ACK point)
	hi   uint64 // one past the highest sequence ever emitted
}

// record stores segment s's emission time, clearing any stale
// retransmission mark left by a previous occupant of the slot.
func (r *sendRing) record(s uint64, now float64) {
	if s >= r.hi {
		r.hi = s + 1
	}
	if need := r.hi - r.lo; need > uint64(len(r.time)) {
		r.grow(need)
	}
	i := s & uint64(len(r.time)-1)
	r.time[i] = now
	r.retx[i] = false
}

// markRetx flags segment s as retransmitted; s must have been recorded.
func (r *sendRing) markRetx(s uint64) { r.retx[s&uint64(len(r.retx)-1)] = true }

// sample returns segment s's emission time and whether it is a valid
// RTT sample (recorded, transmitted exactly once).
func (r *sendRing) sample(s uint64) (float64, bool) {
	if s < r.lo || s >= r.hi {
		return 0, false
	}
	i := s & uint64(len(r.time)-1)
	return r.time[i], !r.retx[i]
}

// advance moves the live span's lower edge to ack (the new una),
// retiring every record below it.
func (r *sendRing) advance(ack uint64) {
	r.lo = ack
	if r.hi < r.lo {
		r.hi = r.lo
	}
}

// grow doubles the ring until it covers need slots, re-homing the live
// span's records under the new mask.
func (r *sendRing) grow(need uint64) {
	size := uint64(tcpRingCap)
	for size < need {
		size *= 2
	}
	nt := make([]float64, size)
	nr := make([]bool, size)
	oldMask := uint64(len(r.time) - 1)
	for s := r.lo; s < r.hi-1; s++ { // hi-1 is being recorded by the caller
		nt[s&(size-1)] = r.time[s&oldMask]
		nr[s&(size-1)] = r.retx[s&oldMask]
	}
	r.time, r.retx = nt, nr
}

// Start begins the transfer (the source is greedy: it always has data).
func (t *TCP) Start() { t.pump() }

// Stop halts the source: pending timers are cancelled and late
// feedback is ignored.
func (t *TCP) Stop() {
	t.stopped = true
	t.rtoEv.Cancel()
}

// Retransmits returns how many segments were re-emitted (fast
// retransmit, NewReno partial-ack, and timeout recovery combined).
func (t *TCP) Retransmits() int64 { return t.retransmits }

// Timeouts returns how many times the retransmission timer fired.
func (t *TCP) Timeouts() int64 { return t.timeouts }

// DropsSeen returns how many in-network drop notifications reached the
// source. Congestion control reacts only to the ACK stream (as real TCP
// must); the count is diagnostic.
func (t *TCP) DropsSeen() int64 { return t.dropsSeen }

// Cwnd returns the current congestion window in segments.
func (t *TCP) Cwnd() float64 { return t.cwnd }

// flight returns the number of outstanding segments.
func (t *TCP) flight() float64 { return float64(t.nxt - t.una) }

// OnAck processes one cumulative acknowledgement and releases it.
func (t *TCP) OnAck(p *packet.Packet) {
	ack := p.AckSeq
	t.sim.Release(p)
	if t.stopped {
		return
	}
	switch {
	case ack > t.una:
		t.newAck(ack)
	case ack == t.una && t.nxt > t.una:
		t.dupAck()
	}
	t.pump()
}

// OnDrop is told that a buffer manager rejected one of the flow's
// segments. TCP infers loss from the ACK stream alone, so this
// only counts the notification and releases the dead segment.
func (t *TCP) OnDrop(p *packet.Packet) {
	t.sim.Release(p)
	if t.stopped {
		return
	}
	t.dropsSeen++
}

// newAck advances the window for an acknowledgement of new data.
func (t *TCP) newAck(ack uint64) {
	acked := float64(ack - t.una)
	// Consume send records, sampling the RTT from the newest
	// acknowledged segment that was transmitted exactly once (Karn).
	sample := -1.0
	for s := t.una; s < ack; s++ {
		if ts, ok := t.sent.sample(s); ok {
			sample = t.sim.Now() - ts
		}
	}
	t.sent.advance(ack)
	if sample >= 0 {
		t.updateRTO(sample)
	}
	t.una = ack
	if t.nxt < t.una {
		t.nxt = t.una
	}
	if t.inRecovery {
		if ack > t.recover {
			// Full acknowledgement: leave fast recovery, deflating the
			// window back to the slow-start threshold.
			t.inRecovery = false
			t.cwnd = t.ssthresh
			t.dupAcks = 0
		} else {
			// NewReno partial ACK: the next hole is lost too. Retransmit
			// it, deflate by the acknowledged amount, and stay in
			// recovery.
			t.cwnd = t.cwnd - acked + 1
			if t.cwnd < 1 {
				t.cwnd = 1
			}
			t.retransmit(t.una)
		}
	} else {
		t.dupAcks = 0
		if t.cwnd < t.ssthresh {
			t.cwnd += acked // slow start: exponential growth
		} else {
			t.cwnd += acked / t.cwnd // congestion avoidance: +1 MSS per RTT
		}
	}
	t.armTimer()
}

// dupAck handles an acknowledgement that advanced nothing while data is
// outstanding.
func (t *TCP) dupAck() {
	if t.inRecovery {
		// Window inflation: each further dupack signals a segment left
		// the network.
		t.cwnd++
		return
	}
	t.dupAcks++
	if t.dupAcks < tcpDupThresh {
		return
	}
	// Fast retransmit + fast recovery.
	t.ssthresh = t.flight() / 2
	if t.ssthresh < tcpMinSsthresh {
		t.ssthresh = tcpMinSsthresh
	}
	t.recover = t.nxt - 1
	t.inRecovery = true
	t.cwnd = t.ssthresh + tcpDupThresh
	t.retransmit(t.una)
	t.armTimer()
}

// onTimeout handles RTO expiry: multiplicative decrease to one segment,
// go-back-N from the first hole, exponential timer backoff.
func (t *TCP) onTimeout() {
	if t.stopped || t.una == t.nxt {
		return
	}
	t.timeouts++
	t.ssthresh = t.flight() / 2
	if t.ssthresh < tcpMinSsthresh {
		t.ssthresh = tcpMinSsthresh
	}
	t.cwnd = 1
	t.dupAcks = 0
	t.inRecovery = false
	t.rto *= 2
	if t.rto > tcpMaxRTO {
		t.rto = tcpMaxRTO
	}
	t.retransmit(t.una)
	// Go-back-N: everything after the retransmitted segment is resent
	// as the window re-opens.
	t.nxt = t.una + 1
	t.armTimer()
	t.pump()
}

// updateRTO folds one RTT measurement into the RFC 6298 estimator and
// resets the backoff.
func (t *TCP) updateRTO(r float64) {
	if t.srtt < 0 {
		t.srtt = r
		t.rttvar = r / 2
	} else {
		d := t.srtt - r
		if d < 0 {
			d = -d
		}
		t.rttvar = 0.75*t.rttvar + 0.25*d
		t.srtt = 0.875*t.srtt + 0.125*r
	}
	t.rto = t.srtt + 4*t.rttvar
	if t.rto < tcpMinRTO {
		t.rto = tcpMinRTO
	}
	if t.rto > tcpMaxRTO {
		t.rto = tcpMaxRTO
	}
}

// armTimer (re)starts the retransmission timer, or cancels it when
// nothing is outstanding.
func (t *TCP) armTimer() {
	t.rtoEv.Cancel()
	if t.una == t.nxt {
		return
	}
	t.rtoEv = t.sim.AtHandler(t.sim.Now()+t.rto, (*tcpTimeout)(t))
}

// emit sends segment s into the sink.
func (t *TCP) emit(s uint64) {
	t.sent.record(s, t.sim.Now())
	t.sink.Receive(newPacket(t.sim, t.cfg.Flow, t.cfg.SegmentSize, s))
}

// retransmit re-emits segment s immediately (retransmissions are not
// paced: they replace a segment the network already accounted for).
func (t *TCP) retransmit(s uint64) {
	t.retransmits++
	t.emit(s)
	t.sent.markRetx(s)
}

// pump starts the paced emission loop when the window allows sending.
func (t *TCP) pump() {
	if t.pumping || t.stopped {
		return
	}
	if t.flight() >= t.cwnd {
		return
	}
	t.pumping = true
	t.step()
}

// step emits one new segment and re-schedules itself one transmission
// time later, for as long as the window stays open.
func (t *TCP) step() {
	if t.stopped {
		t.pumping = false
		return
	}
	if t.flight() >= t.cwnd {
		t.pumping = false
		return
	}
	wasIdle := t.una == t.nxt
	t.emit(t.nxt)
	t.nxt++
	if wasIdle {
		t.armTimer()
	}
	t.sim.AtHandler(t.sim.Now()+units.TransmissionTime(t.cfg.SegmentSize, t.cfg.PaceRate), (*tcpStep)(t))
}
