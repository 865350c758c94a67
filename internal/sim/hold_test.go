package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// holdDepths are the queue depths the hold models run at: 16 is a
// single link's queue, 1k to 100k the per-flow timers of the many-flow
// sizing cells.
var holdDepths = []int{16, 1000, 10000, 100000}

// holder is one event of the hold model: when it fires it re-arms
// itself an exponential increment ahead.
type holder struct {
	s *Simulator
	r *rand.Rand
}

func (h *holder) Fire() { h.s.AtHandler(h.s.Now()+Exponential(h.r, 1), h) }

// timedFlow is one flow of the timer model: a holder that, firing, also
// cancels its retransmission timer and re-arms it holdRTO ahead, as a
// TCP sender does on every ACK.
type timedFlow struct {
	holder
	timer Event
}

// holdRTO is the timer model's retransmission timeout, in mean hold
// increments: a flow's timer almost never fires, and is cancelled
// while it is often its bucket's least key.
const holdRTO = 8

// expiry is a timer that fires: the model's flow re-arms it at its
// next event.
type expiry struct{}

func (expiry) Fire() {}

func (f *timedFlow) Fire() {
	s := f.s
	f.timer.Cancel()
	f.timer = s.AtHandler(s.Now()+holdRTO, expiry{})
	s.AtHandler(s.Now()+Exponential(f.r, 1), f)
}

// runHold queues depth events, one per handler that arm returns for
// its index, reaches the steady-state spread and times b.N steps.
func runHold(b *testing.B, depth int, arm func(s *Simulator, r *rand.Rand, i int) Handler) {
	s := New()
	s.Reserve(2 * depth)
	r := NewRand(1)
	for i := 0; i < depth; i++ {
		s.AtHandler(Exponential(r, 1), arm(s, r, i))
	}
	for i := 0; i < 10*depth; i++ {
		s.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkHold is the classic hold model of event-queue studies: a
// queue held at a fixed depth, each operation dispatching the earliest
// event, which schedules one more an exponential increment ahead. ns/op
// is the price of one dispatch and one insertion at that depth, the
// exponential draw included.
func BenchmarkHold(b *testing.B) {
	for _, depth := range holdDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			hs := make([]holder, depth)
			runHold(b, depth, func(s *Simulator, r *rand.Rand, i int) Handler {
				hs[i] = holder{s: s, r: r}
				return &hs[i]
			})
		})
	}
}

// BenchmarkHoldTimers is the hold model with a retransmission timer per
// event, the pattern of a TCP sender's ACKs: each operation dispatches
// the earliest event, cancels that flow's timer and re-arms it holdRTO
// ahead, and schedules the flow's next event. Depth counts flows, so
// twice as many events are pending; ns/op prices a dispatch, a Cancel
// — often of its bucket's least key, which the queue then finds again
// — and two insertions.
func BenchmarkHoldTimers(b *testing.B) {
	for _, depth := range holdDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			fs := make([]timedFlow, depth)
			runHold(b, depth, func(s *Simulator, r *rand.Rand, i int) Handler {
				fs[i] = timedFlow{holder: holder{s: s, r: r}}
				fs[i].timer = s.AtHandler(holdRTO, expiry{})
				return &fs[i]
			})
		})
	}
}
