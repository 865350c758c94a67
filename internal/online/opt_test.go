package online

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomInstance draws a tiny instance suitable for brute-force
// verification.
func randomInstance(r *rand.Rand, model Model) *Instance {
	in := &Instance{
		Name:   "random",
		Model:  model,
		Queues: 1 + r.Intn(3),
		Buffer: 1 + r.Intn(3),
	}
	n := 1 + r.Intn(8)
	for i := 0; i < n; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{
			At:    r.Intn(5),
			Queue: r.Intn(in.Queues),
			Value: float64(1 + r.Intn(5)),
		})
	}
	return in
}

// TestOptMatchesBruteForce is the satellite solver check: the min-cost
// max-flow optimum must agree exactly with exhaustive enumeration on
// tiny instances (≤ 8 packets) in both models.
func TestOptMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, model := range []Model{ModelShared, ModelMultiQueue} {
		for trial := 0; trial < 200; trial++ {
			in := randomInstance(r, model)
			got, err := Opt(in)
			if err != nil {
				t.Fatalf("%s trial %d: Opt: %v", model, trial, err)
			}
			want, err := BruteForceOpt(in)
			if err != nil {
				t.Fatalf("%s trial %d: BruteForceOpt: %v", model, trial, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s trial %d: Opt=%v, brute force=%v on %+v", model, trial, got, want, in)
			}
		}
	}
}

func TestOptEmptyInstance(t *testing.T) {
	in := &Instance{Model: ModelShared, Queues: 1, Buffer: 1}
	got, err := Opt(in)
	if err != nil || got != 0 {
		t.Fatalf("Opt(empty) = %v, %v; want 0, nil", got, err)
	}
}

// TestOptSharedHand pins the solver on a hand-checked shared-buffer
// instance: B ones followed by B alphas in the same step retain only B
// packets, and the optimum keeps the alphas.
func TestOptSharedHand(t *testing.T) {
	const b, alpha = 3, 10.0
	in := &Instance{Model: ModelShared, Queues: 1, Buffer: b}
	for i := 0; i < b; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{At: 0, Queue: 0, Value: 1})
	}
	for i := 0; i < b; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{At: 0, Queue: 0, Value: alpha})
	}
	got, err := Opt(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(b) * alpha; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Opt = %v, want %v", got, want)
	}
}

// TestOptMultiQueueHand pins the solver on the classic B=1 lower-bound
// sequence for m=3 (fill all queues, then re-hit the unserved ones):
// the optimum schedules 2m−1 = 5 of the 6 packets.
func TestOptMultiQueueHand(t *testing.T) {
	in := &Instance{
		Model:  ModelMultiQueue,
		Queues: 3,
		Buffer: 1,
		Arrivals: []Arrival{
			{At: 0, Queue: 0, Value: 1},
			{At: 0, Queue: 1, Value: 1},
			{At: 0, Queue: 2, Value: 1},
			{At: 1, Queue: 1, Value: 1},
			{At: 1, Queue: 2, Value: 1},
			{At: 2, Queue: 2, Value: 1},
		},
	}
	got, err := Opt(in)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("Opt = %v, want 5 (= 2m−1)", got)
	}
}

func TestBruteForceRefusesLargeInstances(t *testing.T) {
	in := &Instance{Model: ModelShared, Queues: 1, Buffer: 1}
	for i := 0; i < maxBruteForceArrivals+1; i++ {
		in.Arrivals = append(in.Arrivals, Arrival{At: i, Value: 1})
	}
	if _, err := BruteForceOpt(in); err == nil {
		t.Fatal("BruteForceOpt accepted an oversized instance")
	}
}

func TestOptRejectsInvalidInstance(t *testing.T) {
	in := &Instance{Model: "bogus", Queues: 1, Buffer: 1}
	if _, err := Opt(in); err == nil {
		t.Fatal("Opt accepted an unknown model")
	}
}

// maxBruteForceArrivals caps the exponential enumeration in
// BruteForceOpt.
const maxBruteForceArrivals = 16

// BruteForceOpt computes the offline optimum by enumerating every
// subset of arrivals and checking schedulability directly. Exponential
// — it refuses instances above maxBruteForceArrivals packets — and
// exists solely to verify Opt on tiny instances.
func BruteForceOpt(in *Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	n := len(in.Arrivals)
	if n > maxBruteForceArrivals {
		return 0, fmt.Errorf("online: %d arrivals exceed the brute-force limit of %d", n, maxBruteForceArrivals)
	}
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var value float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				value += in.Arrivals[i].Value
			}
		}
		if value <= best {
			continue
		}
		if schedulable(in, mask) {
			best = value
		}
	}
	return best, nil
}

// schedulable reports whether the subset of arrivals selected by mask
// can all be transmitted under the instance's buffer discipline.
func schedulable(in *Instance, mask int) bool {
	chains := 1
	if in.Model == ModelMultiQueue {
		chains = in.Queues
	}
	counts := make([]int, chains)
	if chains == 1 {
		// Single chain: serving the (only) nonempty chain whenever
		// possible is trivially optimal, no search needed.
		i := 0
		for t := 0; t < in.horizon(); t++ {
			for ; i < len(in.Arrivals) && in.Arrivals[i].At == t; i++ {
				if mask&(1<<i) != 0 {
					counts[0]++
				}
			}
			if counts[0] > in.Buffer {
				return false
			}
			if counts[0] > 0 {
				counts[0]--
			}
		}
		return counts[0] == 0
	}
	// Multi-queue: which chain to serve each step matters, so search
	// over service choices with memoization on (arrival index, step,
	// counts).
	seen := make(map[string]bool)
	var try func(i, t int, prev []int) bool
	try = func(i, t int, prev []int) bool {
		counts := append([]int(nil), prev...)
		for ; i < len(in.Arrivals) && in.Arrivals[i].At == t; i++ {
			if mask&(1<<i) != 0 {
				counts[in.Arrivals[i].Queue]++
			}
		}
		total := 0
		for _, c := range counts {
			if c > in.Buffer {
				return false
			}
			total += c
		}
		if i >= len(in.Arrivals) {
			// No arrivals left: the backlog drains freely, one per step.
			return true
		}
		if total == 0 {
			// Idle until the next arrival batch.
			return try(i, in.Arrivals[i].At, counts)
		}
		key := fmt.Sprint(i, t, counts)
		if seen[key] {
			return false
		}
		for q := range counts {
			if counts[q] == 0 {
				continue
			}
			counts[q]--
			ok := try(i, t+1, counts)
			counts[q]++
			if ok {
				return true
			}
		}
		seen[key] = true
		return false
	}
	return try(0, 0, counts)
}
