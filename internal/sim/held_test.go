package sim

import (
	"fmt"
	"reflect"
	"testing"

	"bufqos/internal/packet"
)

// heldList is a Holder over a list of completions in key order:
// completing one logs its holder, its time and the clock.
type heldList struct {
	s    *Simulator
	name string
	keys []Key
	log  *[]string
}

func (h *heldList) Next() (Key, bool) {
	if len(h.keys) == 0 {
		return Key{}, false
	}
	return h.keys[0], true
}

func (h *heldList) Complete() {
	k := h.keys[0]
	h.keys = h.keys[1:]
	*h.log = append(*h.log, fmt.Sprintf("%s@%v now=%v", h.name, k.Time, h.s.Now()))
}

func TestCurrentAndDrawSeq(t *testing.T) {
	s := New()
	s.At(1, func() {}) // seq 0
	if got, want := s.Current(), (Key{0, 0, 1}); got != want {
		t.Errorf("Current outside any event = %+v, want %+v (an event scheduled now)", got, want)
	}
	if seq := s.DrawSeq(); seq != 1 {
		t.Errorf("DrawSeq = %d, want 1", seq)
	}
	var inside Key
	s.At(2, func() { inside = s.Current() }) // seq 2
	s.Run(0)
	if want := (Key{2, 0, 2}); inside != want {
		t.Errorf("Current inside the event = %+v, want %+v", inside, want)
	}
	if s.Steps() != 2 {
		t.Errorf("Steps = %d: DrawSeq must not queue an event", s.Steps())
	}
}

// TestSettleOrdersHeldCompletionsAsEvents holds a completion at key
// (1, 0.5, seq) and asks, from events due at the same instant, whether
// Settle completes it: the events that order before it by (time, stamp,
// seq) must not see it, the ones after it must.
func TestSettleOrdersHeldCompletionsAsEvents(t *testing.T) {
	s := New()
	var log []string
	h := &heldList{s: s, name: "c", log: &log}
	s.Hold(h)
	seen := map[string]bool{}
	probe := func(name string) func() {
		return func() {
			s.Settle()
			seen[name] = len(log) > 0
		}
	}
	s.At(1, probe("stamp 0"))
	s.At(0.5, func() {
		s.At(1, probe("stamp 0.5, drawn before"))
		h.keys = append(h.keys, Key{1, 0.5, s.DrawSeq()})
		s.At(1, probe("stamp 0.5, drawn after"))
		s.AtStampedPacket(1, 0.25, func(*packet.Packet) { probe("stamp 0.25")() }, &packet.Packet{})
		s.At(0.75, func() { s.At(1, probe("stamp 0.75")) })
	})
	s.Run(0)
	want := map[string]bool{
		"stamp 0":                 false,
		"stamp 0.25":              false,
		"stamp 0.5, drawn before": false,
		"stamp 0.5, drawn after":  true,
		"stamp 0.75":              true,
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("completion seen by the equal-time events: %v, want %v", seen, want)
	}
	if want := []string{"c@1 now=1"}; !reflect.DeepEqual(log, want) {
		t.Errorf("completions %q, want %q", log, want)
	}
}

// TestRunCallsSettleHeldCompletions: RunUntil(t) settles what is due at
// or before t, RunBefore(t) what is due before t, each moving the clock
// as the completion's event would have.
func TestRunCallsSettleHeldCompletions(t *testing.T) {
	s := New()
	var log []string
	h := &heldList{s: s, name: "c", log: &log}
	for _, at := range []float64{1, 2, 3} {
		h.keys = append(h.keys, Key{at, 0, s.DrawSeq()})
	}
	s.Hold(h)
	s.RunUntil(2)
	if want := []string{"c@1 now=1", "c@2 now=2"}; !reflect.DeepEqual(log, want) || s.Now() != 2 {
		t.Errorf("after RunUntil(2): %q at %v, want %q at 2", log, s.Now(), want)
	}
	s.RunBefore(3)
	if len(log) != 2 || s.Now() != 2 {
		t.Errorf("RunBefore(3) settled a completion due at 3: %q, clock %v", log, s.Now())
	}
	s.RunBefore(4)
	if want := "c@3 now=3"; len(log) != 3 || log[2] != want || s.Now() != 3 {
		t.Errorf("after RunBefore(4): %q at %v, want %q last and the clock at 3", log, s.Now(), want)
	}
}

// TestRunSettlesHeldInKeyOrder: once the queue is empty, Step settles
// one completion per call across every holder in key order, so Run
// ends with the clock at the last one; no completion counts as a step.
func TestRunSettlesHeldInKeyOrder(t *testing.T) {
	s := New()
	var log []string
	a := &heldList{s: s, name: "a", log: &log}
	b := &heldList{s: s, name: "b", log: &log}
	a.keys = []Key{{1, 0, s.DrawSeq()}}
	b.keys = []Key{{2, 0, s.DrawSeq()}, {2, 1, s.DrawSeq()}}
	a.keys = append(a.keys, Key{2, 1, s.DrawSeq()}, Key{4, 2, s.DrawSeq()})
	s.Hold(a)
	s.Hold(b)
	s.At(1.5, func() {})
	s.Run(0)
	want := []string{"a@1 now=1.5", "b@2 now=2", "b@2 now=2", "a@2 now=2", "a@4 now=4"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("settled %q, want %q", log, want)
	}
	if s.Now() != 4 || s.Steps() != 1 {
		t.Errorf("after Run: clock %v, %d steps; want 4 and 1", s.Now(), s.Steps())
	}
	if s.Step() {
		t.Error("Step reported work with nothing queued or held")
	}
}
