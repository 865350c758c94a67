package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{3, 1, 2, 0.5, 2.5} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run(0)
	want := []float64{0.5, 1, 2, 2.5, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1.0, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: position %d got event %d", i, v)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.At(5, func() {
		if s.Now() != 5 {
			t.Errorf("Now() = %v inside event at t=5", s.Now())
		}
	})
	s.Run(0)
	if s.Now() != 5 {
		t.Errorf("final Now() = %v, want 5", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at float64
	s.At(2, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run(0)
	if at != 5 {
		t.Errorf("After(3) from t=2 fired at %v, want 5", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	e.Cancel()
	s.Run(0)
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Steps() != 0 {
		t.Errorf("Steps() = %d, want 0", s.Steps())
	}
}

func TestCancelInsideEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.At(2, func() { fired = true })
	s.At(1, func() { e.Cancel() })
	s.Run(0)
	if fired {
		t.Error("event cancelled at t=1 still fired at t=2")
	}
}

func TestRunUntilStopsAndSetsClock(t *testing.T) {
	s := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=2.5, want 2", len(fired))
	}
	if s.Now() != 2.5 {
		t.Errorf("Now() = %v after RunUntil(2.5)", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
	if s.Now() != 10 {
		t.Errorf("Now() = %v after RunUntil(10)", s.Now())
	}
}

func TestRunUntilIncludesBoundary(t *testing.T) {
	s := New()
	fired := false
	s.At(2, func() { fired = true })
	s.RunUntil(2)
	if !fired {
		t.Error("event at exactly the RunUntil boundary did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNonFiniteTimePanics(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", bad)
				}
			}()
			New().At(bad, func() {})
		}()
	}
}

// TestNaNHorizonPanics: a NaN horizon fails the same check as one in
// the past. It once passed it, so RunUntil(NaN) ran every pending event
// and, with a source that re-arms itself, never returned.
func TestNaNHorizonPanics(t *testing.T) {
	for name, run := range map[string]func(*Simulator, float64){
		"RunUntil":  (*Simulator).RunUntil,
		"RunBefore": (*Simulator).RunBefore,
	} {
		s := New()
		var tick func()
		tick = func() { s.After(1, tick) }
		s.At(0, tick)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			run(s, math.NaN())
		}()
		if s.Steps() != 0 {
			t.Errorf("%s(NaN) ran %d events before panicking", name, s.Steps())
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestRunawayGuard(t *testing.T) {
	s := New()
	var loop func()
	loop = func() { s.After(0.001, loop) }
	s.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("infinite event chain did not trip the budget guard")
		}
	}()
	s.Run(1000)
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	s := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	s.Run(0)
	if count != 5 {
		t.Errorf("chained events executed %d times, want 5", count)
	}
	if s.Now() != 5 {
		t.Errorf("Now() = %v, want 5", s.Now())
	}
}

func TestPendingReflectsQueue(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	if !e.Pending() {
		t.Error("event should report pending")
	}
	s.Run(0)
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", s.Pending())
	}
	if e.Pending() {
		t.Error("fired event still reports pending")
	}
}

// Property: for any set of non-negative event offsets, events fire in
// non-decreasing time order and all of them fire.
func TestPropertyOrderedExecution(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var fired []float64
		for _, o := range offsets {
			at := float64(o) / 100
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run(0)
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCancelRemovesEagerly verifies cancelled events leave the queue
// immediately instead of lingering until popped.
func TestCancelRemovesEagerly(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.At(2, func() {})
	s.At(3, func() {})
	e.Cancel()
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d after cancel, want 2", s.Pending())
	}
	e.Cancel() // double-cancel is a no-op
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d after double cancel, want 2", s.Pending())
	}
}

// TestStaleHandleAfterSlotReuse checks that a handle to a fired event
// cannot cancel an unrelated event that recycled its arena slot.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Run(0)
	fired := false
	s.At(2, func() { fired = true }) // reuses e's arena slot
	if e.Pending() {
		t.Error("stale handle reports pending")
	}
	e.Cancel()
	s.Run(0)
	if !fired {
		t.Error("stale Cancel killed an unrelated event")
	}
}

// TestCancelChurnDeterminism drives the kernel through a heavy
// cancel/reschedule workload twice and checks the firing orders match
// exactly, and that each order respects (time, schedule-seq).
func TestCancelChurnDeterminism(t *testing.T) {
	run := func() []int {
		s := New()
		rng := NewRand(42)
		var fired []int
		handles := make([]Event, 0, 512)
		next := 0
		schedule := func() {
			id := next
			next++
			at := s.Now() + rng.Float64()*3
			handles = append(handles, s.At(at, func() { fired = append(fired, id) }))
		}
		for i := 0; i < 200; i++ {
			schedule()
		}
		for i := 0; i < 2000; i++ {
			switch rng.Intn(3) {
			case 0:
				schedule()
			case 1:
				h := handles[rng.Intn(len(handles))]
				h.Cancel()
			default:
				// Cancel one and immediately reschedule another in its
				// place — the shaper/churn pattern.
				handles[rng.Intn(len(handles))].Cancel()
				schedule()
			}
		}
		s.Run(0)
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("firing order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTieBreakSurvivesCancelChurn cancels interleaved same-time events
// and checks the survivors still fire in schedule order.
func TestTieBreakSurvivesCancelChurn(t *testing.T) {
	s := New()
	var order []int
	var handles []Event
	for i := 0; i < 50; i++ {
		i := i
		handles = append(handles, s.At(1.0, func() { order = append(order, i) }))
	}
	for i := 0; i < 50; i += 2 {
		handles[i].Cancel()
	}
	s.Run(0)
	if len(order) != 25 {
		t.Fatalf("fired %d events, want 25", len(order))
	}
	for i, v := range order {
		if v != 2*i+1 {
			t.Fatalf("tie-break violated after cancels: position %d got event %d", i, v)
		}
	}
}

// TestZeroAllocSteadyState guards the allocation-free hot path: once
// the arena and heap reach steady capacity, schedule+dispatch must not
// allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	s := New()
	var next func()
	next = func() { s.After(1e-6, next) }
	s.After(0, next)
	for i := 0; i < 100; i++ { // warm the arena and heap
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("schedule+dispatch allocates %v/op in steady state, want 0", allocs)
	}
}

// TestZeroAllocCancelReschedule guards the other hot pattern: cancel an
// event and schedule a replacement, as regulators do per packet.
func TestZeroAllocCancelReschedule(t *testing.T) {
	s := New()
	fn := func() {}
	e := s.At(1, fn)
	for i := 0; i < 100; i++ {
		e.Cancel()
		e = s.At(1, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel()
		e = s.At(1, fn)
	})
	if allocs != 0 {
		t.Errorf("cancel+reschedule allocates %v/op in steady state, want 0", allocs)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 10; seed++ {
		for id := 0; id < 100; id++ {
			v := DeriveSeed(seed, id)
			if seen[v] {
				t.Fatalf("duplicate derived seed for (%d,%d)", seed, id)
			}
			seen[v] = true
		}
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Error("DeriveSeed is not deterministic")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Exponential(r, 2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("empirical mean %v, want 2.5±0.05", mean)
	}
}

func TestExponentialDegenerate(t *testing.T) {
	r := NewRand(1)
	if Exponential(r, 0) != 0 || Exponential(r, -1) != 0 {
		t.Error("non-positive mean should return 0")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// TestNodeSize pins the arena node at 64 bytes, one cache line: the
// radix queue keeps an event's key and its bucket links in its node,
// so inserting, cancelling or moving an event down a bucket touches
// one line of the arena and nothing else, and the three event forms
// share one Handler field so the key and links fit beside it.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(node{}); got != 64 {
		t.Errorf("unsafe.Sizeof(node{}) = %d, want 64", got)
	}
}

// counter is a receiver-carrying event target, a per-flow object in
// miniature: it re-arms itself through a pointer to itself.
type counter struct {
	s     *Simulator
	fired []float64
}

func (c *counter) Fire() {
	c.fired = append(c.fired, c.s.Now())
	if len(c.fired) < 3 {
		c.s.AtHandler(c.s.Now()+1, c)
	}
}

// TestAtHandlerOrdersLikeAt interleaves receiver events with callbacks
// at equal times: they run in insertion order, exactly as At would
// order them, and a receiver event cancels like any other.
func TestAtHandlerOrdersLikeAt(t *testing.T) {
	s := New()
	var order []string
	c := &counter{s: s}
	s.At(1, func() { order = append(order, "fn") })
	s.AtHandler(1, c)
	s.At(1, func() { order = append(order, "fn2") })
	cancelled := &counter{s: s}
	s.AtHandler(0.5, cancelled).Cancel()
	s.RunUntil(10)
	if len(order) != 2 || order[0] != "fn" || order[1] != "fn2" {
		t.Errorf("callbacks ran as %v", order)
	}
	if want := []float64{1, 2, 3}; len(c.fired) != 3 || c.fired[0] != want[0] || c.fired[2] != want[2] {
		t.Errorf("receiver fired at %v, want %v", c.fired, want)
	}
	if len(cancelled.fired) != 0 {
		t.Errorf("cancelled receiver fired at %v", cancelled.fired)
	}
}

// TestAtHandlerWithoutAllocating: scheduling and dispatching a
// pointer-shaped receiver allocates nothing once the arena is warm.
func TestAtHandlerWithoutAllocating(t *testing.T) {
	s := New()
	s.Reserve(16)
	h := handlerFunc{n: new(int)}
	if a := testing.AllocsPerRun(1000, func() {
		s.AtHandler(s.Now()+1, h)
		s.Step()
	}); a != 0 {
		t.Errorf("%v allocations per receiver event, want 0", a)
	}
}

// handlerFunc is a pointer-shaped Handler (a struct of one pointer)
// that only counts.
type handlerFunc struct{ n *int }

func (h handlerFunc) Fire() { *h.n++ }
