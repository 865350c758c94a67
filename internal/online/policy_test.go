package online

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mustPolicy(t *testing.T, name string) Policy {
	t.Helper()
	p, err := PolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// twoValueInstance is the classic non-preemptive lower bound: B ones
// then B alphas in the same step.
func twoValueInstance(b int, alpha float64) *Instance {
	in := &Instance{Name: "two-value", Model: ModelShared, Queues: 1, Buffer: b}
	for i := 0; i < b; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{At: 0, Value: 1})
	}
	for i := 0; i < b; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{At: 0, Value: alpha})
	}
	return in
}

// TestGreedyPreemptsOnTwoValue: preemptive greedy evicts the ones for
// the alphas and matches the offline optimum on the two-value sequence,
// while the non-preemptive variant is stuck at ratio ≈ alpha.
func TestGreedyPreemptsOnTwoValue(t *testing.T) {
	const b, alpha = 4, 10.0
	in := twoValueInstance(b, alpha)
	preempt, err := Evaluate(mustPolicy(t, "greedy"), in)
	if err != nil {
		t.Fatal(err)
	}
	if preempt.ALG != b*alpha || preempt.Ratio != 1 {
		t.Fatalf("greedy: ALG=%v ratio=%v, want ALG=%v ratio=1", preempt.ALG, preempt.Ratio, b*alpha)
	}
	np, err := Evaluate(mustPolicy(t, "greedy-np"), in)
	if err != nil {
		t.Fatal(err)
	}
	if np.ALG != b || math.Abs(np.Ratio-alpha) > 1e-9 {
		t.Fatalf("greedy-np: ALG=%v ratio=%v, want ALG=%v ratio=%v", np.ALG, np.Ratio, float64(b), alpha)
	}
}

// TestLQFMeetsLowerBound replays the 2−1/m construction at B=1 against
// longest-queue-first for several m and checks the exact ratio.
func TestLQFMeetsLowerBound(t *testing.T) {
	for m := 2; m <= 5; m++ {
		in := &Instance{Name: "lb", Model: ModelMultiQueue, Queues: m, Buffer: 1}
		// Fill every queue at t=0, then at step t ≥ 1 re-hit every queue
		// LQF (lowest-index tie-break) has not yet served.
		for q := 0; q < m; q++ {
			in.Arrivals = append(in.Arrivals, Arrival{At: 0, Queue: q, Value: 1})
		}
		for tstep := 1; tstep < m; tstep++ {
			for q := tstep; q < m; q++ {
				in.Arrivals = append(in.Arrivals, Arrival{At: tstep, Queue: q, Value: 1})
			}
		}
		out, err := Evaluate(mustPolicy(t, "lqf"), in)
		if err != nil {
			t.Fatal(err)
		}
		if out.ALG != float64(m) || out.OPT != float64(2*m-1) {
			t.Fatalf("m=%d: ALG=%v OPT=%v, want %d and %d", m, out.ALG, out.OPT, m, 2*m-1)
		}
		if want := 2 - 1/float64(m); math.Abs(out.Ratio-want) > 1e-9 {
			t.Fatalf("m=%d: ratio=%v, want 2−1/m = %v", m, out.Ratio, want)
		}
	}
}

// TestClassSegPreemption: a full buffer of class-0 packets is preempted
// newest-first by higher-class arrivals, and service is strict
// priority.
func TestClassSegPreemption(t *testing.T) {
	in := &Instance{
		Name:   "cseg",
		Model:  ModelShared,
		Queues: 2,
		Buffer: 2,
		Arrivals: []Arrival{
			{At: 0, Queue: 0, Value: 1},
			{At: 0, Queue: 0, Value: 1},
			{At: 0, Queue: 1, Value: 5},
			{At: 0, Queue: 1, Value: 5},
		},
	}
	out, err := Evaluate(mustPolicy(t, "cseg"), in)
	if err != nil {
		t.Fatal(err)
	}
	// Both class-0 packets are pushed out; both class-1 packets go
	// through, matching the optimum.
	if out.ALG != 10 || out.Ratio != 1 {
		t.Fatalf("cseg: ALG=%v ratio=%v, want 10 and 1", out.ALG, out.Ratio)
	}
}

// TestSemiGreedyEqualsLQFAtBOne: with B=1 every nonempty queue is above
// half capacity, so semi-greedy degenerates to LQF and meets the same
// construction ratio.
func TestSemiGreedyEqualsLQFAtBOne(t *testing.T) {
	in := &Instance{
		Name:   "lb",
		Model:  ModelMultiQueue,
		Queues: 2,
		Buffer: 1,
		Arrivals: []Arrival{
			{At: 0, Queue: 0, Value: 1},
			{At: 0, Queue: 1, Value: 1},
			{At: 1, Queue: 1, Value: 1},
		},
	}
	for _, name := range []string{"lqf", "semigreedy"} {
		out, err := Evaluate(mustPolicy(t, name), in)
		if err != nil {
			t.Fatal(err)
		}
		if out.ALG != 2 || out.OPT != 3 {
			t.Fatalf("%s: ALG=%v OPT=%v, want 2 and 3", name, out.ALG, out.OPT)
		}
	}
}

// TestPoliciesWithinBounds draws random instances and checks every
// bounded policy stays within its proven competitive ratio against the
// exact optimum — the invariant FuzzInstance asserts on its corpus. A
// draw outside the bound's model is revalued into it: unit values for
// the multi-queue policies, one value per class rising with the class
// for cseg.
func TestPoliciesWithinBounds(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, p := range Policies() {
		if p.Bound == 0 {
			continue
		}
		for trial := 0; trial < 100; trial++ {
			in := randomInstance(r, p.Model)
			if !p.BoundApplies(in) {
				for i := range in.Arrivals {
					in.Arrivals[i].Value = 1
					if p.Model == ModelShared {
						in.Arrivals[i].Value += float64(in.Arrivals[i].Queue)
					}
				}
				if !p.BoundApplies(in) {
					t.Fatalf("%s trial %d: revalued instance still outside the bound's model: %+v", p.Name, trial, in)
				}
			}
			out, err := Evaluate(p, in)
			if err != nil {
				t.Fatal(err)
			}
			if out.Ratio > p.Bound+1e-9 {
				t.Fatalf("%s trial %d: ratio %v exceeds bound %v on %+v", p.Name, trial, out.Ratio, p.Bound, in)
			}
		}
	}
}

func TestPolicyByNameUnknown(t *testing.T) {
	_, err := PolicyByName("nope")
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v, want unknown-policy error", err)
	}
}

func TestRunRejectsModelMismatch(t *testing.T) {
	in := &Instance{Model: ModelMultiQueue, Queues: 2, Buffer: 1}
	if _, err := Run(mustPolicy(t, "greedy"), in); err == nil {
		t.Fatal("Run accepted a model mismatch")
	}
}

// TestInstanceRoundTrip pins the JSON reproducer format.
func TestInstanceRoundTrip(t *testing.T) {
	in := twoValueInstance(2, 10)
	var buf strings.Builder
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Buffer != in.Buffer || len(back.Arrivals) != len(in.Arrivals) || back.Model != in.Model {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, in)
	}
	if _, err := Parse(strings.NewReader(`{"model":"shared","queues":1,"buffer":1,"bogus":true}`)); err == nil {
		t.Fatal("Parse accepted an unknown field")
	}
	for _, tail := range []string{` {"model":"shared"}`, ` trailing`, `]`} {
		if _, err := Parse(strings.NewReader(buf.String() + tail)); err == nil {
			t.Errorf("Parse accepted an instance followed by %q", tail)
		}
	}
}
