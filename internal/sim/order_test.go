package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"bufqos/internal/packet"
)

// The ordering oracle: random streams of At, After, AtHandler,
// AtStampedPacket, Cancel, RunBefore and RunUntil, with equal event
// times and equal stamps planted throughout, run on the kernel and on
// naiveKernel — a linear scan for the least (time, sched, seq) — must
// fire the same events at the same times and leave the same events
// pending. A kernel may also own delay lines: form numForms+j sends on
// line j (line_test.go). Streams aimed at the radix queue's edges —
// times over fifteen binades, zeros and subnormals, a thousand-event
// tie, cancels inside a bucket as it moves down, empty run windows,
// keys that first differ from the clock's in each byte — and a fuzz
// target over encoded streams use the same two kernels, and after
// every op checkQueue holds the queue to its invariants.

// Scheduling forms a stream draws from.
const (
	formAt = iota
	formAfter
	formHandler
	formStamped
	numForms
)

// orderOp is one step of a stream: a scheduling (delay d, and for the
// stamped form a stamp sOff before the event time), a Cancel of the
// pending-or-not event at fraction frac of those scheduled so far, or a
// run to now+d. With ulps > 0 the scheduling or run is instead that
// many floats after the clock, and with at > 0 at byteTime(now, at-1,
// up, fill).
type orderOp struct {
	kind  int // 0 schedule, 1 cancel, 2 RunUntil, 3 RunBefore
	form  int
	d     float64
	sOff  float64
	frac  float64
	label int
	ulps  int
	at    int
	up    int
	fill  byte
}

type fired struct {
	label int
	time  float64
}

// kernel is the surface both implementations expose to a stream.
type kernel interface {
	now() float64
	schedule(form int, d, sOff float64, label int)
	cancel(i int)
	cancelLabel(label int)
	scheduled() int
	run(t float64, exclusive bool)
	pending() int
	log() []fired
	nlines() int
}

// childLabel marks events scheduled from inside a callback; they
// schedule nothing further, so every stream terminates. leadLabel marks
// an event that, firing, cancels the event labelled one above it:
// scheduled just after it, in the same bucket, so the cancel lands in
// the bucket the queue has just moved down.
const (
	childLabel = 1 << 20
	leadLabel  = 1 << 19
)

// eventTime is the time a scheduling with delay d asks for, on both
// kernels: now+d, except that a -0 delay at time zero asks for -0
// itself, the one negative time a kernel accepts.
func eventTime(now, d float64) float64 {
	if now == 0 && d == 0 && math.Signbit(d) {
		return d
	}
	return now + d
}

// delay is op's delay at clock now: op.d; or the distance to the
// op.ulps-th float after now, which now+delay then reproduces exactly;
// or the distance to byteTime(now, op.at-1, op.up, op.fill), which
// now+delay reproduces within a float.
func (op orderOp) delay(now float64) float64 {
	switch {
	case op.at > 0:
		return byteTime(now, op.at-1, op.up, op.fill) - now
	case op.ulps > 0:
		t := now
		for i := 0; i < op.ulps; i++ {
			t = math.Nextafter(t, math.Inf(1))
		}
		return t - now
	}
	return op.d
}

// byteTime is the time whose key is now's with byte j raised by up — to
// at most 255, and in the top byte to 0x7e, so that it and the few
// floats after it stay finite — and each byte below j set to fill; or
// now, where that key would lie below now's.
func byteTime(now float64, j, up int, fill byte) float64 {
	k := key(now)
	shift := 8 * uint(j)
	top := 255
	if j == 7 {
		top = 0x7e
	}
	digit := uint64(min(int(k>>shift&0xff)+up, top))
	low := uint64(1)<<shift - 1
	t := k&^(low|0xff<<shift) | digit<<shift | low&(0x0101010101010101*uint64(fill))
	if t < k {
		return now
	}
	return math.Float64frombits(t)
}

// react is what firing label does, identically on both kernels: record
// the firing, and for some labels schedule a child event (often at the
// current instant, tying with events already due now) or cancel an
// earlier event from inside the dispatch loop.
func react(k kernel, label int) {
	if label >= childLabel {
		return
	}
	if label&leadLabel != 0 {
		k.cancelLabel(label&^leadLabel + 1)
	}
	if label%3 == 0 {
		k.schedule(label%numForms, float64((label/3)%3)/8, float64(label%5)/8, label+childLabel)
	}
	if label%5 == 1 && k.scheduled() > 0 {
		k.cancel(label % k.scheduled())
	}
	if n := k.nlines(); n > 0 && label%4 == 1 {
		k.schedule(numForms+label%n, 0, 0, label+childLabel)
	}
}

// simKernel drives the real Simulator. A send on line j goes through
// lines[j] or, when lines is nil, through AfterPacket with delays[j].
type simKernel struct {
	s      *Simulator
	events []Event
	labels []int // of events, index for index
	fired  []fired
	lines  []DelayLine
	delays []float64
}

type labelHandler struct {
	k     *simKernel
	label int
}

func (h *labelHandler) Fire() { h.k.fire(h.label) }

func (k *simKernel) fire(label int) {
	k.fired = append(k.fired, fired{label, k.s.Now()})
	react(k, label)
}

func (k *simKernel) now() float64 { return k.s.Now() }

func (k *simKernel) schedule(form int, d, sOff float64, label int) {
	t := eventTime(k.s.Now(), d)
	var e Event
	switch form {
	case formAt:
		e = k.s.At(t, func() { k.fire(label) })
	case formAfter:
		e = k.s.After(d, func() { k.fire(label) })
	case formHandler:
		e = k.s.AtHandler(t, &labelHandler{k, label})
	case formStamped:
		e = k.s.AtStampedPacket(t, t-sOff, func(p *packet.Packet) { k.fire(int(p.Seq)) }, &packet.Packet{Seq: uint64(label)})
	default: // a line send, which no Cancel reaches
		j := form - numForms
		fn, p := func(p *packet.Packet) { k.fire(int(p.Seq)) }, &packet.Packet{Seq: uint64(label)}
		if k.lines != nil {
			k.lines[j].Send(fn, p)
		} else {
			k.s.AfterPacket(k.delays[j], fn, p)
		}
	}
	k.events = append(k.events, e)
	k.labels = append(k.labels, label)
}

func (k *simKernel) cancelLabel(label int) {
	for i, l := range k.labels {
		if l == label {
			k.events[i].Cancel()
		}
	}
}

func (k *simKernel) cancel(i int)   { k.events[i].Cancel() }
func (k *simKernel) scheduled() int { return len(k.events) }
func (k *simKernel) pending() int   { return k.s.Pending() }
func (k *simKernel) log() []fired   { return k.fired }
func (k *simKernel) nlines() int    { return len(k.delays) }

func (k *simKernel) run(t float64, exclusive bool) {
	if exclusive {
		k.s.RunBefore(t)
	} else {
		k.s.RunUntil(t)
	}
}

// naiveKernel keeps every event ever scheduled in one slice and runs
// the least pending one by (time, sched, seq), found by a linear scan.
// A line send is a plain event delays[j] ahead that no Cancel reaches.
type naiveKernel struct {
	clock  float64
	events []naiveEvent // index = seq
	fired  []fired
	delays []float64
}

type naiveEvent struct {
	time, sched float64
	label       int
	pending     bool
	sent        bool // on a line: not cancellable
}

func (k *naiveKernel) now() float64 { return k.clock }

func (k *naiveKernel) schedule(form int, d, sOff float64, label int) {
	t := eventTime(k.clock, d)
	sched := k.clock
	if form == formStamped {
		sched = t - sOff
	}
	sent := form >= numForms
	if sent {
		t = k.clock + k.delays[form-numForms]
	}
	k.events = append(k.events, naiveEvent{time: t, sched: sched, label: label, pending: true, sent: sent})
}

func (k *naiveKernel) cancel(i int) {
	if !k.events[i].sent {
		k.events[i].pending = false
	}
}

func (k *naiveKernel) cancelLabel(label int) {
	for i := range k.events {
		if k.events[i].label == label {
			k.cancel(i)
		}
	}
}
func (k *naiveKernel) scheduled() int { return len(k.events) }
func (k *naiveKernel) log() []fired   { return k.fired }
func (k *naiveKernel) nlines() int    { return len(k.delays) }

func (k *naiveKernel) pending() int {
	n := 0
	for _, e := range k.events {
		if e.pending {
			n++
		}
	}
	return n
}

func (k *naiveKernel) run(t float64, exclusive bool) {
	for {
		best := -1
		for i := range k.events {
			e := &k.events[i]
			if !e.pending || e.time > t || exclusive && e.time == t {
				continue
			}
			// Strictly earlier only: on equal (time, sched) the lower
			// index, the earlier seq, stays.
			if b := &k.events[max(best, 0)]; best < 0 ||
				e.time < b.time || e.time == b.time && e.sched < b.sched {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := &k.events[best]
		e.pending = false
		k.clock = e.time
		k.fired = append(k.fired, fired{e.label, k.clock})
		react(k, e.label)
	}
	if !exclusive {
		k.clock = t
	}
}

// randomStream draws a stream whose times and stamps come from a grid of
// eighths, so equal times and equal stamps are the rule, and plants
// bursts of identical schedulings on top.
func randomStream(rng *rand.Rand, n int) []orderOp {
	grid := func(max int) float64 { return float64(rng.Intn(max+1)) / 8 }
	var ops []orderOp
	label := 0
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 6:
			op := orderOp{form: rng.Intn(numForms), d: grid(8), sOff: grid(12)}
			burst := 1
			if rng.Intn(4) == 0 {
				burst = 2 + rng.Intn(3) // planted tie: same time, same stamp
			}
			for i := 0; i < burst; i++ {
				op.label = label
				label++
				ops = append(ops, op)
				if rng.Intn(2) == 0 {
					op.form = rng.Intn(numForms) // a tie across forms
				}
			}
		case r < 8:
			ops = append(ops, orderOp{kind: 1, frac: rng.Float64()})
		default:
			ops = append(ops, orderOp{kind: 2 + rng.Intn(2), d: grid(6)})
		}
	}
	return append(ops, orderOp{kind: 2, d: 1e3}) // drain
}

func apply(k kernel, op orderOp) {
	switch op.kind {
	case 0:
		k.schedule(op.form, op.delay(k.now()), op.sOff, op.label)
	case 1:
		if n := k.scheduled(); n > 0 {
			k.cancel(int(op.frac * float64(n)))
		}
	default:
		k.run(k.now()+op.delay(k.now()), op.kind == 3)
	}
}

// checkOrder runs ops on the kernel, with delay lines of the given
// delays, and on naiveKernel, and reports how many events fired, which
// bytes' buckets it saw, and the first disagreement: in the clock or
// the pending count after an op, in the kernel's queue invariants, or
// in what fired.
func checkOrder(ops []orderOp, delays []float64) (int, cover, error) {
	var cov cover
	s := New()
	kern := &simKernel{s: s, delays: delays}
	if delays != nil {
		kern.lines = s.NewDelayLines(delays, nil)
	}
	naive := &naiveKernel{delays: delays}
	for i, op := range ops {
		apply(kern, op)
		apply(naive, op)
		if kern.pending() != naive.pending() || kern.now() != naive.now() {
			return 0, cov, fmt.Errorf("op %d (%+v): pending %d at %v, naive %d at %v",
				i, op, kern.pending(), kern.now(), naive.pending(), naive.now())
		}
		if err := checkQueue(s, &cov); err != nil {
			return 0, cov, fmt.Errorf("op %d (%+v): %v", i, op, err)
		}
	}
	got, want := kern.log(), naive.log()
	if len(got) != len(want) {
		return 0, cov, fmt.Errorf("fired %d events, naive %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return 0, cov, fmt.Errorf("firing %d is %+v, naive %+v", i, got[i], want[i])
		}
	}
	if kern.pending() != 0 {
		return 0, cov, fmt.Errorf("%d left pending after the drain", kern.pending())
	}
	return len(got), cov, nil
}

// cover records, one bit per byte j, whether checkQueue saw a digit
// bucket of byte j holding events, and holding a stale least key.
type cover struct{ filled, stale uint8 }

// checkQueue holds the kernel's queue to its invariants, computing each
// node's bucket from its key alone: bucket 0 is a heap of the events
// due at last; every other queued node sits in bucket j·256 + (byte j
// of its key), j the highest byte in which its key differs from last,
// on a list whose links and positions agree; a bucket's mask bit, and
// its word's summary bit, are set exactly while it holds events; its
// least key is exact unless its stale bit is set, and then lies below
// every key it holds; and the count of queued events is right.
func checkQueue(s *Simulator, cov *cover) error {
	queued := 0
	for i, id := range s.ties {
		n := &s.nodes[id]
		if key(n.time) != s.last || n.pos != int32(i) {
			return fmt.Errorf("tie %d: node %d at %v, pos %d, last %#x", i, id, n.time, n.pos, s.last)
		}
		if i > 0 && s.tieBefore(id, s.ties[(i-1)/4]) {
			return fmt.Errorf("tie %d: node %d precedes its parent", i, id)
		}
		queued++
	}
	for b, head := range s.heads {
		w, bit := b/64, uint64(1)<<(b%64)
		if (s.mask[w]&bit != 0) != (head != 0) {
			return fmt.Errorf("bucket %d: head %d, mask bit %v", b, head, s.mask[w]&bit != 0)
		}
		stale := s.stale[w]&bit != 0
		if head == 0 {
			if s.mins[b] != 0 || stale {
				return fmt.Errorf("empty bucket %d: least key %#x, stale %v", b, ^s.mins[b], stale)
			}
			continue
		}
		least := uint64(math.MaxUint64)
		prev := int32(0)
		for e, steps := head, 0; e != 0; e, steps = s.nodes[e-1].next, steps+1 {
			if steps > len(s.nodes) {
				return fmt.Errorf("bucket %d: its list loops", b)
			}
			n := &s.nodes[e-1]
			k := key(n.time)
			if k <= s.last {
				return fmt.Errorf("bucket %d: key %#x at or below last %#x", b, k, s.last)
			}
			j := (63 - bits.LeadingZeros64(k^s.last)) / 8
			if want := j*256 + int(k>>(8*j)&0xff); want != b || n.pos != int32(-2-b) || n.prev != prev {
				return fmt.Errorf("node %d (key %#x, last %#x) in bucket %d, pos %d, prev %d; want bucket %d, prev %d",
					e-1, k, s.last, b, n.pos, n.prev, want, prev)
			}
			least = min(least, k)
			prev = e
			queued++
		}
		if m := ^s.mins[b]; m != least && !(stale && m < least) {
			return fmt.Errorf("bucket %d: least key %#x (stale %v), holds %#x", b, m, stale, least)
		}
		cov.filled |= 1 << (b / 256)
		if stale {
			cov.stale |= 1 << (b / 256)
		}
	}
	for w, m := range s.mask {
		if (s.summary>>w&1 != 0) != (m != 0) {
			return fmt.Errorf("mask word %d is %#x, summary %#x", w, m, s.summary)
		}
	}
	if queued != s.queued {
		return fmt.Errorf("%d queued in the buckets, counted %d", queued, s.queued)
	}
	return nil
}

// TestDispatchMatchesNaiveOrder is the kernel's ordering oracle: the
// eighths-grid streams, dense in equal times and stamps, wideStream's
// radix edges, on delay lines too, and byteStream's digits, which must
// fill and leave stale a bucket of every byte.
func TestDispatchMatchesNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for stream := 0; stream < 300; stream++ {
		ops := randomStream(rng, 50+rng.Intn(400))
		fired, _, err := checkOrder(ops, nil)
		if err != nil {
			t.Fatalf("stream %d: %v", stream, err)
		}
		if fired < len(ops)/4 {
			t.Fatalf("stream %d: %d fired of %d ops", stream, fired, len(ops))
		}
	}
	for stream := 0; stream < 40; stream++ {
		tie := 0
		if stream%4 == 0 {
			tie = 1000 + rng.Intn(200)
		}
		ops := wideStream(rng, 200+rng.Intn(300), tie)
		fired, _, err := checkOrder(ops, lineDelays)
		if err != nil {
			t.Fatalf("wide stream %d: %v", stream, err)
		}
		if fired < tie+len(ops)/4 {
			t.Fatalf("wide stream %d: %d fired of %d ops", stream, fired, len(ops))
		}
	}
	var all cover
	for stream := 0; stream < 40; stream++ {
		ops := byteStream(rng, 200+rng.Intn(300))
		fired, cov, err := checkOrder(ops, lineDelays)
		if err != nil {
			t.Fatalf("byte stream %d: %v", stream, err)
		}
		if fired < len(ops)/2 {
			t.Fatalf("byte stream %d: %d fired of %d ops", stream, fired, len(ops))
		}
		all.filled |= cov.filled
		all.stale |= cov.stale
	}
	if all.filled != 0xff || all.stale != 0xff {
		t.Fatalf("byte streams filled buckets of bytes %08b and left stale those of %08b, want every byte",
			all.filled, all.stale)
	}
}

// wideStream draws a stream aimed at a radix queue. Delays spread
// log-uniformly over 1e-9 to 1e6 s, with exact zeros and subnormals
// among them, and the stream opens at time zero with -0, +0 and
// subnormal times. Lead events cancel their successor, scheduled a
// hair later in the same bucket, as that bucket moves down. RunBefore
// windows one float wide, which find nothing due but ties at the clock,
// are each followed by schedulings a few floats after it. Line sends ride along, and
// when tie > 0 one instant gets tie events, across the four forms and
// with stamps spread over eight values.
func wideStream(rng *rand.Rand, n, tie int) []orderOp {
	wide := func() float64 { return math.Pow(10, -9+15*rng.Float64()) }
	form := func() int { return rng.Intn(numForms + len(lineDelays)) }
	label := 0
	var ops []orderOp
	add := func(op orderOp) {
		if op.kind == 0 {
			op.label |= label
			label++
		}
		ops = append(ops, op)
	}
	for _, d := range []float64{math.Copysign(0, -1), 0, 5e-324, 0x1p-1022} {
		add(orderOp{form: rng.Intn(numForms), d: d})
	}
	tieAt := -1
	if tie > 0 {
		tieAt = rng.Intn(n)
	}
	for len(ops) < n {
		if len(ops) >= tieAt && tieAt >= 0 {
			d := wide()
			for i := 0; i < tie; i++ {
				add(orderOp{form: rng.Intn(numForms), d: d, sOff: float64(rng.Intn(8)) * d / 8})
			}
			tieAt = -1
		}
		switch r := rng.Intn(20); {
		case r < 8:
			d := wide()
			add(orderOp{form: form(), d: d, sOff: d * rng.Float64()})
		case r < 10:
			add(orderOp{form: form(), d: []float64{0, 5e-324, 0x1p-1074 * 3}[rng.Intn(3)]})
		case r < 12: // a lead and its victim, 1e-6 apart in relative terms
			d := wide()
			add(orderOp{form: rng.Intn(numForms), d: d, label: leadLabel})
			add(orderOp{form: rng.Intn(numForms), d: d * (1 + 1e-6)})
		case r < 14:
			add(orderOp{kind: 1, frac: rng.Float64()})
		case r < 16: // a window one float wide, then events just after it
			add(orderOp{kind: 3, ulps: 1})
			for j := rng.Intn(3); j >= 0; j-- {
				add(orderOp{form: rng.Intn(numForms), ulps: 1 + rng.Intn(3)})
			}
		default:
			add(orderOp{kind: 2 + rng.Intn(2), d: wide()})
		}
	}
	return append(ops, orderOp{kind: 2, d: 1e8}) // drain
}

// byteStream draws a stream aimed at the radix queue's byte digits. The
// clock first runs to a time in [1, 2). Then, for each byte j in turn,
// a group of events lands where its keys first differ from the clock's
// in byte j, one of:
//   - a digit just above the clock's, and a digit of 255 with every
//     byte below it 0xff beside the key one above it, a carry into
//     byte j+1;
//   - a bucket of three events whose least one is cancelled, by a lead
//     one float after the clock, before the bucket is the lowest, so
//     its least key is found again when it is;
//   - a bucket of three events and a RunBefore window that ends inside
//     it.
//
// Runs to a time inside the group's bucket ride along, and a drain to
// +Inf ends the stream.
func byteStream(rng *rand.Rand, n int) []orderOp {
	label := 0
	var ops []orderOp
	add := func(op orderOp) {
		if op.kind == 0 {
			op.form = rng.Intn(numForms)
			op.label |= label
			label++
		}
		ops = append(ops, op)
	}
	add(orderOp{kind: 2, d: 1 + rng.Float64()})
	for j := 0; len(ops) < n; j = (j + 1) % 8 {
		at, up := j+1, 1+rng.Intn(2)
		switch rng.Intn(3) {
		case 0:
			add(orderOp{at: at, up: up, fill: byte(rng.Intn(256))})
			if j < 7 {
				add(orderOp{at: at, up: 255, fill: 0xff})
				add(orderOp{at: at + 1, up: 1})
			}
		case 1:
			add(orderOp{ulps: 1, label: leadLabel})
			for _, fill := range []byte{0, 0x80, 0xff} { // the least first
				add(orderOp{at: at, up: up + 1, fill: fill})
			}
		default:
			for _, fill := range []byte{0, 0x80, 0xff} {
				add(orderOp{at: at, up: up, fill: fill})
			}
			add(orderOp{kind: 3, at: at, up: up, fill: 0x40})
		}
		if rng.Intn(4) == 0 {
			add(orderOp{kind: 2 + rng.Intn(2), at: at, up: up, fill: 0xc0})
		}
	}
	return append(ops, orderOp{kind: 2, d: math.Inf(1)}) // drain
}

// FuzzDispatchMatchesNaiveOrder runs decoded streams — on delay lines
// too — through checkOrder. The seed corpus is the eighths-grid and
// wide and byte streams of TestDispatchMatchesNaiveOrder, encoded.
func FuzzDispatchMatchesNaiveOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		f.Add(encodeOps(randomStream(rng, 40+rng.Intn(60))))
		f.Add(encodeOps(wideStream(rng, 40+rng.Intn(60), 0)))
		f.Add(encodeOps(byteStream(rng, 60+rng.Intn(60))))
	}
	f.Add(encodeOps(wideStream(rng, 30, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := checkOrder(decodeOps(data), lineDelays); err != nil {
			t.Fatal(err)
		}
	})
}

// opBytes is the size of one encoded op: a head byte (kind in bits
// 0-1, the lead flag in bit 2, the form in bits 3-5, ulps in bits 6-7),
// the delay and the stamp offset as float64 bits, the cancel fraction
// in 256ths, and at, up and fill.
const opBytes = 21

func encodeOps(ops []orderOp) []byte {
	var b []byte
	for _, op := range ops {
		if op.kind == 2 && op.d >= 1e8 {
			break // decodeOps appends the drain
		}
		head := byte(op.kind) | byte(op.form)<<3 | byte(op.ulps)<<6
		if op.label&leadLabel != 0 {
			head |= 4
		}
		b = append(b, head)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.d))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.sOff))
		b = append(b, byte(op.frac*256), byte(op.at), byte(op.up), op.fill)
	}
	return b
}

// decodeOps turns any bytes into a valid stream: delays and stamp
// offsets become finite, non-negative and at most 1e6 (a -0 delay stays
// -0), forms wrap to the forms and lines there are, at to a byte or
// none, labels count up, and a drain to +Inf ends it.
func decodeOps(data []byte) []orderOp {
	clean := func(v float64) float64 {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return 0
		case v < 0:
			v = -v
		}
		return math.Min(v, 1e6)
	}
	var ops []orderOp
	label := 0
	for ; len(data) >= opBytes; data = data[opBytes:] {
		op := orderOp{
			kind: int(data[0] & 3),
			form: int(data[0]>>3&7) % (numForms + len(lineDelays)),
			ulps: int(data[0] >> 6),
			d:    clean(math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))),
			sOff: clean(math.Float64frombits(binary.LittleEndian.Uint64(data[9:]))),
			frac: float64(data[17]) / 256,
			at:   int(data[18] % 9),
			up:   int(data[19]),
			fill: data[20],
		}
		if op.kind == 0 {
			op.label = label
			if data[0]&4 != 0 {
				op.label |= leadLabel
			}
			label++
		}
		ops = append(ops, op)
	}
	return append(ops, orderOp{kind: 2, d: math.Inf(1)})
}
