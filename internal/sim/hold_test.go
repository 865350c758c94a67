package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// holder is one event of the hold model: when it fires it re-arms
// itself an exponential increment ahead.
type holder struct {
	s *Simulator
	r *rand.Rand
}

func (h *holder) Fire() { h.s.AtHandler(h.s.Now()+Exponential(h.r, 1), h) }

// BenchmarkHold is the classic hold model of event-queue studies: a
// queue held at a fixed depth, each operation dispatching the earliest
// event, which schedules one more an exponential increment ahead. ns/op
// is the price of one dispatch and one insertion at that depth, the
// exponential draw included; 16 is a single link's queue, 1k and 10k
// the per-flow timers of the many-flow sizing cells.
func BenchmarkHold(b *testing.B) {
	for _, depth := range []int{16, 1000, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New()
			s.Reserve(depth)
			r := NewRand(1)
			hs := make([]holder, depth)
			for i := range hs {
				hs[i] = holder{s: s, r: r}
				s.AtHandler(Exponential(r, 1), &hs[i])
			}
			for i := 0; i < 10*depth; i++ { // reach the steady-state spread
				s.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
