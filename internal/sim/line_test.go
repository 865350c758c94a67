package sim

import (
	"math"
	"math/rand"
	"testing"

	"bufqos/internal/packet"
)

// lineDelays are the test lines' delays: dyadic, so arrivals land
// exactly on the eighths grid the streams schedule on and tie with
// other events, and one zero delay, whose packets tie with everything
// due at the instant they are sent.
var lineDelays = []float64{0, 1.0 / 8, 3.0 / 8, 1}

// lineStream is randomStream with about half its schedulings turned
// into sends on a random line. Bursts of identical schedulings become
// bursts of sends at one instant, on one line or across lines.
func lineStream(rng *rand.Rand, n int) []orderOp {
	ops := randomStream(rng, n)
	for i := range ops {
		if ops[i].kind == 0 && rng.Intn(2) == 0 {
			ops[i].form = numForms + rng.Intn(len(lineDelays))
		}
	}
	return ops
}

// TestDelayLineMatchesAfterPacket is the delay line's ordering oracle.
// Random programs of At, After, AtHandler, AtStampedPacket, Cancel,
// RunBefore, RunUntil and line sends — callbacks send on lines too —
// run three ways: sends on delay lines, every send replaced by
// AfterPacket with the line's delay, and TestDispatchMatchesNaiveOrder's
// linear scan. All three must fire the same events at the same times
// and count the same events pending after every step; the two kernels
// must dispatch the same number of events.
func TestDelayLineMatchesAfterPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sends := 0
	for stream := 0; stream < 300; stream++ {
		ops := lineStream(rng, 50+rng.Intn(400))
		s := New()
		onLines := &simKernel{s: s, lines: s.NewDelayLines(lineDelays, nil), delays: lineDelays}
		viaAfter := &simKernel{s: New(), delays: lineDelays}
		naive := &naiveKernel{delays: lineDelays}
		ks := []kernel{onLines, viaAfter, naive}
		for i, op := range ops {
			if op.kind == 0 && op.form >= numForms {
				sends++
			}
			for _, k := range ks {
				apply(k, op)
			}
			for _, k := range ks[1:] {
				if k.pending() != onLines.pending() || k.now() != onLines.now() {
					t.Fatalf("stream %d op %d (%+v): lines pending %d at %v, other kernel %d at %v",
						stream, i, op, onLines.pending(), onLines.now(), k.pending(), k.now())
				}
			}
		}
		got := onLines.log()
		for _, k := range ks[1:] {
			want := k.log()
			if len(got) != len(want) {
				t.Fatalf("stream %d: lines fired %d events, other kernel %d", stream, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("stream %d: firing %d is %+v, other kernel %+v", stream, i, got[i], want[i])
				}
			}
		}
		if a, b := onLines.s.Steps(), viaAfter.s.Steps(); a != b {
			t.Fatalf("stream %d: %d steps on lines, %d through AfterPacket", stream, a, b)
		}
		if onLines.pending() != 0 {
			t.Fatalf("stream %d: %d left pending", stream, onLines.pending())
		}
	}
	if sends < 10000 {
		t.Fatalf("only %d top-level sends: the streams no longer exercise the lines", sends)
	}
}

// TestDelayLineCountsPending: Pending counts every packet on a line,
// not only the line's one queued event.
func TestDelayLineCountsPending(t *testing.T) {
	s := New()
	line := &s.NewDelayLines([]float64{1}, nil)[0]
	fn := func(p *packet.Packet) {}
	for i := 0; i < 3; i++ {
		line.Send(fn, &packet.Packet{})
	}
	s.At(0.5, func() {})
	if s.Pending() != 4 || line.n != 3 {
		t.Fatalf("Pending %d, line holds %d; want 4 and 3", s.Pending(), line.n)
	}
	s.Step()
	s.Step()
	if s.Pending() != 2 || line.n != 2 {
		t.Fatalf("after two steps: Pending %d, line holds %d; want 2 and 2", s.Pending(), line.n)
	}
}

// TestDelayLineRefusesBadDelays: a line's delay must be a finite,
// non-negative number when the line is built.
func TestDelayLineRefusesBadDelays(t *testing.T) {
	for _, d := range []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("delay %v accepted", d)
				}
			}()
			New().NewDelayLines([]float64{1, d}, nil)
		}()
	}
}

// TestDelayLineWithoutAllocating is the line's allocation gate: once a
// ring has grown to hold the wire's packets, sending and delivering
// cost nothing, beside an ordinary event that shares the heap.
func TestDelayLineWithoutAllocating(t *testing.T) {
	s := New()
	line := &s.NewDelayLines([]float64{1e-3}, []int{1})[0]
	var arrive func(p *packet.Packet)
	arrive = func(p *packet.Packet) { line.Send(arrive, p) }
	var tick func()
	tick = func() { s.After(1e-4, tick) }
	s.After(0, tick)
	for i := 0; i < 100; i++ { // the ring grows from 1 to 128
		line.Send(arrive, s.NewPacket())
	}
	for i := 0; i < 1000; i++ {
		s.Step()
	}
	if line.n != 100 || len(line.ring) != 128 {
		t.Fatalf("line holds %d packets in a ring of %d; want 100 in 128", line.n, len(line.ring))
	}
	if a := testing.AllocsPerRun(1000, func() { s.Step() }); a != 0 {
		t.Errorf("%v allocations per event with a grown line, want 0", a)
	}
}
