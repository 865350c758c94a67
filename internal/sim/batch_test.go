package sim

import (
	"reflect"
	"testing"

	"bufqos/internal/packet"
)

// TestStampedOrdering checks that equal-time events order by their
// scheduling stamp before insertion order, which is what lets a shard
// merge cross-shard arrivals into the position a global kernel would
// have used.
func TestStampedOrdering(t *testing.T) {
	s := New()
	var got []string
	note := func(p *packet.Packet) { got = append(got, []string{"a", "b", "b2"}[p.Seq]) }
	stamped := func(sched float64, label uint64) {
		p := s.NewPacket()
		p.Seq = label
		s.AtStampedPacket(5, sched, note, p)
	}
	s.At(5, func() { got = append(got, "local") }) // sched = 0
	stamped(3, 1)                                  // later stamp
	stamped(1, 0)                                  // earliest stamp... after "local"?
	stamped(3, 2)                                  // stamp tie → insertion order
	s.RunUntil(10)
	want := []string{"local", "a", "b", "b2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}

// TestStampedMatchesLocalOrder checks the comparator refactor is a
// no-op for purely local workloads: At assigns sched = now, which is
// nondecreasing in seq, so (time, sched, seq) equals (time, seq).
func TestStampedMatchesLocalOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		s.At(2, func() { got = append(got, i) })
	}
	s.At(1, func() {
		// Scheduled at time 0 but executing at 1: children scheduled now
		// carry sched=1 > 0, yet the same fire time as the batch above —
		// they must run after all seq-earlier sched-0 events.
		s.At(2, func() { got = append(got, 100) })
	})
	s.RunUntil(3)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}

// TestAtStampedValidation checks the argument panics.
func TestAtStampedValidation(t *testing.T) {
	s := New()
	handler := func(*packet.Packet) {}
	for name, fn := range map[string]func(){
		"stamp after fire time": func() { s.AtStampedPacket(1, 2, handler, s.NewPacket()) },
		"nan stamp":             func() { s.AtStampedPacket(1, nan(), handler, s.NewPacket()) },
		"past event":            func() { s.RunUntil(5); s.AtStampedPacket(1, 1, handler, s.NewPacket()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func nan() float64 { return 0.0 / zero }

var zero = 0.0

// TestBatchCancelSameTime checks the dispatcher honours a cancel issued
// by an earlier event of the same instant: the cancelled callback must
// not fire.
func TestBatchCancelSameTime(t *testing.T) {
	s := New()
	fired := false
	var victim Event
	s.At(5, func() { victim.Cancel() })
	victim = s.At(5, func() { fired = true })
	survived := false
	s.At(5, func() { survived = true })
	s.RunUntil(10)
	if fired {
		t.Error("cancelled same-time event fired")
	}
	if !survived {
		t.Error("later same-time event did not fire")
	}
	if got := s.Steps(); got != 2 {
		t.Errorf("Steps() = %d, want 2 (cancelled event must not count)", got)
	}
}

// TestBatchCancelTwice checks double-cancelling an event of the
// instant being dispatched stays a no-op.
func TestBatchCancelTwice(t *testing.T) {
	s := New()
	var victim Event
	s.At(5, func() { victim.Cancel(); victim.Cancel() })
	victim = s.At(5, func() { t.Error("cancelled event fired") })
	s.RunUntil(10)
}

// TestRunBeforeExcludesBoundary checks RunBefore's strict horizon:
// events at exactly t stay queued and the clock does not jump to t.
func TestRunBeforeExcludesBoundary(t *testing.T) {
	s := New()
	var got []float64
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.At(3, func() { got = append(got, 3) })
	s.RunBefore(2)
	if want := []float64{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RunBefore(2) executed %v, want %v", got, want)
	}
	if s.Now() != 1 {
		t.Errorf("Now() = %v after RunBefore(2), want 1 (last executed event)", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	s.RunUntil(3)
	if want := []float64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("after RunUntil(3) executed %v, want %v", got, want)
	}
}

// TestReserve checks pre-sizing: scheduling within the reserved
// capacity must grow neither the arena nor bucket 0, whether the events
// spread over many buckets or all tie at one instant, as a topology's
// flow starts do.
func TestReserve(t *testing.T) {
	s := New()
	const n = 4096
	s.Reserve(n)
	if cap(s.nodes) < n || cap(s.ties) < n {
		t.Fatalf("Reserve(%d) left caps nodes=%d ties=%d", n, cap(s.nodes), cap(s.ties))
	}
	nodesCap, tiesCap := cap(s.nodes), cap(s.ties)
	for i := 0; i < n/2; i++ {
		s.At(float64(i), func() {})
	}
	for i := 0; i < n/2; i++ {
		s.At(n, func() {})
	}
	s.RunUntil(n / 2)
	s.Step() // every event at n moves into bucket 0
	if cap(s.nodes) != nodesCap || cap(s.ties) != tiesCap {
		t.Errorf("caps grew: nodes %d→%d ties %d→%d", nodesCap, cap(s.nodes), tiesCap, cap(s.ties))
	}
	if len(s.ties) != n/2-1 {
		t.Errorf("bucket 0 holds %d events after the first at %d ran, want %d", len(s.ties), n, n/2-1)
	}
	s.RunUntil(n)
	if s.Steps() != n {
		t.Errorf("Steps() = %d, want %d", s.Steps(), n)
	}
}

// TestBatchReentrantCallback checks a callback scheduling more work at
// the same instant: the new event runs after the instant's earlier
// events and still fires within the same RunUntil.
func TestBatchReentrantCallback(t *testing.T) {
	s := New()
	var got []string
	s.At(5, func() {
		got = append(got, "first")
		s.At(5, func() { got = append(got, "child") })
	})
	s.At(5, func() { got = append(got, "second") })
	s.RunUntil(5)
	want := []string{"first", "second", "child"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}
