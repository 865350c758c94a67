package validate

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bufqos/internal/online"
	"bufqos/internal/sim"
)

// TestLowerBoundConstructions replays each paper's lower-bound sequence
// against its baseline policy and checks the cited ratio exactly:
// longest-queue-first loses 2−1/m on the Bienkowski construction at
// B=1, and non-preemptive greedy loses α on the two-value sequence.
func TestLowerBoundConstructions(t *testing.T) {
	lqf, err := online.PolicyByName("lqf")
	if err != nil {
		t.Fatal(err)
	}
	for m := 2; m <= 6; m++ {
		in := genLowerBoundMultiQueue(nil, lqf, m, 1)
		out, err := online.Evaluate(lqf, in)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 - 1/float64(m); math.Abs(out.Ratio-want) > 1e-9 {
			t.Errorf("lb-multiqueue m=%d: ratio %v, want exactly 2−1/m = %v (ALG=%v OPT=%v)",
				m, out.Ratio, want, out.ALG, out.OPT)
		}
	}
	np, err := online.PolicyByName("greedy-np")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 3, 5} {
		in := genLowerBoundTwoValue(nil, np, 2, b)
		out, err := online.Evaluate(np, in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.Ratio-twoValueAlpha) > 1e-9 {
			t.Errorf("lb-twovalue B=%d: ratio %v, want α = %v", b, out.Ratio, twoValueAlpha)
		}
	}
}

// TestCompeteBoundsHold sweeps every policy × adversary × buffer cell
// and asserts no bounded policy ever exceeds its proven ratio — the
// acceptance criterion of the subsystem.
func TestCompeteBoundsHold(t *testing.T) {
	rep, err := Compete(context.Background(), CompeteOptions{Seed: 11, Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("empty sweep")
	}
	for _, v := range rep.Violations() {
		t.Errorf("%s vs %s (B=%d): max ratio %v exceeds bound %v (worst seed %d: ALG=%v OPT=%v)",
			v.Policy, v.Adversary, v.Buffer, v.MaxRatio, v.Bound, v.WorstSeed, v.WorstALG, v.WorstOPT)
	}
	// The lower-bound cells must actually bite: at B=1 the lqf cell
	// reaches 2−1/m, and greedy-np reaches α on the two-value sequence.
	sawLQF, sawNP := false, false
	for _, c := range rep.Cells {
		if c.Policy == "lqf" && c.Adversary == "lb-multiqueue" && c.Buffer == 1 {
			sawLQF = true
			if want := 2 - 1/float64(c.Queues); math.Abs(c.MaxRatio-want) > 1e-9 {
				t.Errorf("lqf lb cell: ratio %v, want %v", c.MaxRatio, want)
			}
		}
		if c.Policy == "greedy-np" && c.Adversary == "lb-twovalue" && c.Buffer == 1 {
			sawNP = true
			if math.Abs(c.MaxRatio-twoValueAlpha) > 1e-9 {
				t.Errorf("greedy-np lb cell: ratio %v, want α = %v", c.MaxRatio, twoValueAlpha)
			}
		}
	}
	if !sawLQF || !sawNP {
		t.Errorf("lower-bound cells missing from the sweep (lqf %v, greedy-np %v)", sawLQF, sawNP)
	}
}

// TestCompetitiveOracleHolds checks the adversary library against every
// proven bound at the small geometries (m, B) ∈ {2,3,4}×{1,2,3}, one
// queue count per seed over eight seeds: every bounded policy meets its
// bound on every adversary of its model.
func TestCompetitiveOracleHolds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		queues := 2 + int(seed%3)
		rep, err := Compete(context.Background(), CompeteOptions{
			Seed: seed, Queues: queues, Buffers: []int{1, 2, 3}, Reps: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		bounded := 0
		for _, c := range rep.Cells {
			if c.Bound > 0 {
				bounded++
			}
		}
		if bounded == 0 {
			t.Fatalf("seed %d: no bounded policy checked", seed)
		}
		for _, v := range rep.Violations() {
			t.Errorf("seed %d: %s vs %s (m=%d, B=%d): ratio %v exceeds bound %v (ALG=%v OPT=%v)",
				seed, v.Policy, v.Adversary, v.Queues, v.Buffer, v.MaxRatio, v.Bound, v.WorstALG, v.WorstOPT)
		}
	}
}

// TestCompeteDeterministicAcrossWorkers: the report must be
// bit-identical at any worker count.
func TestCompeteDeterministicAcrossWorkers(t *testing.T) {
	var base *CompeteReport
	for _, workers := range []int{1, 2, 4, 8} {
		rep, err := Compete(context.Background(), CompeteOptions{
			Seed: 23, Reps: 3, Buffers: []int{1, 2}, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = rep
			continue
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("workers=%d: report diverges from the single-worker run", workers)
		}
	}
}

// TestCompeteSelectionErrors: unknown names are rejected, and an empty
// cross product is an error rather than an empty report.
func TestCompeteSelectionErrors(t *testing.T) {
	if _, err := Compete(context.Background(), CompeteOptions{Policies: []string{"nope"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Compete(context.Background(), CompeteOptions{Adversaries: []string{"nope"}}); err == nil {
		t.Error("unknown adversary accepted")
	}
	if _, err := Compete(context.Background(), CompeteOptions{
		Policies: []string{"lqf"}, Adversaries: []string{"lb-twovalue"},
	}); err == nil {
		t.Error("model-mismatched selection produced a report")
	}
}

// TestHillClimbImproves: the adaptive adversary must find a harder
// instance than its random starting point for the non-preemptive
// baseline (which has unbounded ratio, so there is always room).
func TestHillClimbImproves(t *testing.T) {
	np, err := online.PolicyByName("greedy-np")
	if err != nil {
		t.Fatal(err)
	}
	improved := false
	for seed := int64(1); seed <= 5 && !improved; seed++ {
		start, err2 := online.Evaluate(np, genRandomInstance(sim.NewRand(seed), np, 3, 2))
		if err2 != nil {
			t.Fatal(err2)
		}
		climbed, err2 := online.Evaluate(np, genHillClimb(sim.NewRand(seed), np, 3, 2))
		if err2 != nil {
			t.Fatal(err2)
		}
		if climbed.Ratio > start.Ratio {
			improved = true
		}
	}
	if !improved {
		t.Error("hill climbing never beat its random start across 5 seeds")
	}
}
