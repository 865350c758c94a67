package sim

import "math"

// Key is an event's place in the dispatch order: events run in
// increasing (Time, Sched, Seq), Sched being the time the event was
// scheduled and Seq its sequence number.
type Key struct {
	Time, Sched float64
	Seq         uint64
}

// Before reports whether k dispatches before o.
func (k Key) Before(o Key) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	if k.Sched != o.Sched {
		return k.Sched < o.Sched
	}
	return k.Seq < o.Seq
}

// Current returns the key of the event being dispatched. Outside any
// event it returns the key an event scheduled now would get, (Now,
// Now, the next sequence number), so a call from outside orders as an
// event scheduled at the call.
func (s *Simulator) Current() Key {
	if s.running {
		return s.cur
	}
	return Key{s.now, s.now, s.seq}
}

// DrawSeq draws the next sequence number, as scheduling an event
// would, without queuing one: a completion computed ahead of the clock
// takes its key's Seq from here.
func (s *Simulator) DrawSeq() uint64 {
	s.seq++
	return s.seq - 1
}

// A Holder holds completions computed ahead of the clock: work whose
// time is known when it begins (a FIFO link's departures), done
// without an event. The holder does each completion itself once
// something later than it happens on its own path; the kernel settles
// the rest (Hold, Settle).
type Holder interface {
	// Next returns the key of the holder's earliest pending
	// completion, or false when none is pending.
	Next() (Key, bool)
	// Complete does that earliest completion.
	Complete()
}

// Hold registers h with the simulator, which settles its completions
// when a run call returns: RunUntil(t) every one due at or before t,
// RunBefore(t) every one due before t, and Step (so Run) one at a time
// in key order once the queue is empty, moving the clock to its time
// as its event would have. Settle does the same for a reader in the
// middle of a run.
func (s *Simulator) Hold(h Holder) { s.holders = append(s.holders, h) }

// Settle completes every held completion that orders before Current,
// in key order: a reader of held state (a sampler, a probe) calls it
// first, and then sees what the events the completions replace would
// have left.
func (s *Simulator) Settle() { s.settle(s.Current(), math.MaxInt) }

// settle completes held completions in key order while they order
// before lim, at most n of them, and returns how many it completed.
// The clock moves forward to each one's time; one already passed
// leaves it where it is.
func (s *Simulator) settle(lim Key, n int) int {
	done := 0
	for done < n {
		var next Holder
		var at Key
		for _, h := range s.holders {
			if k, ok := h.Next(); ok && k.Before(lim) && (next == nil || k.Before(at)) {
				next, at = h, k
			}
		}
		if next == nil {
			break
		}
		s.now = max(s.now, at.Time)
		next.Complete()
		done++
	}
	return done
}
