package sim

import (
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
// line j (line_test.go).

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
// run to now+d.
type orderOp struct {
	kind  int // 0 schedule, 1 cancel, 2 RunUntil, 3 RunBefore
	form  int
	d     float64
	sOff  float64
	frac  float64
	label int
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
	scheduled() int
	run(t float64, exclusive bool)
	pending() int
	log() []fired
	nlines() int
}

// childLabel marks events scheduled from inside a callback; they
// schedule nothing further, so every stream terminates.
const childLabel = 1 << 20

// react is what firing label does, identically on both kernels: record
// the firing, and for some labels schedule a child event (often at the
// current instant, tying with events already due now) or cancel an
// earlier event from inside the dispatch loop.
func react(k kernel, label int) {
	if label >= childLabel {
		return
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
	t := k.s.Now() + d
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
	t := k.clock + d
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
		k.schedule(op.form, op.d, op.sOff, op.label)
	case 1:
		if n := k.scheduled(); n > 0 {
			k.cancel(int(op.frac * float64(n)))
		}
	default:
		k.run(k.now()+op.d, op.kind == 3)
	}
}

// TestDispatchMatchesNaiveOrder is the kernel's ordering oracle.
func TestDispatchMatchesNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for stream := 0; stream < 300; stream++ {
		ops := randomStream(rng, 50+rng.Intn(400))
		kern, naive := &simKernel{s: New()}, &naiveKernel{}
		for i, op := range ops {
			apply(kern, op)
			apply(naive, op)
			if kern.pending() != naive.pending() || kern.now() != naive.now() {
				t.Fatalf("stream %d op %d (%+v): pending %d at %v, naive %d at %v",
					stream, i, op, kern.pending(), kern.now(), naive.pending(), naive.now())
			}
		}
		got, want := kern.log(), naive.log()
		if len(got) != len(want) {
			t.Fatalf("stream %d: fired %d events, naive %d", stream, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stream %d: firing %d is %+v, naive %+v", stream, i, got[i], want[i])
			}
		}
		if kern.pending() != 0 || len(got) < len(ops)/4 {
			t.Fatalf("stream %d: %d left pending, %d fired of %d ops", stream, kern.pending(), len(got), len(ops))
		}
	}
}
