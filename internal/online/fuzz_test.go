package online_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"bufqos/internal/online"
	"bufqos/internal/sim"
	"bufqos/internal/validate"
)

// oversized are instance files whose exact solution once overflowed the
// solver's size guard: too many queues, and a horizon near MaxInt64.
var oversized = []string{"testdata/oversized/queues.json", "testdata/oversized/horizon.json"}

// TestOversizedInstancesError replays the oversized files: they parse,
// and Opt, Run and Evaluate each return an error instead of panicking.
func TestOversizedInstancesError(t *testing.T) {
	for _, path := range oversized {
		in, err := online.LoadInstance(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := online.Opt(in); err == nil {
			t.Errorf("%s: Opt accepted the instance", path)
		}
		for _, p := range online.Policies() {
			if p.Model != in.Model {
				continue
			}
			if _, err := online.Run(p, in); err == nil {
				t.Errorf("%s: Run(%s) accepted the instance", path, p.Name)
			}
			if _, err := online.Evaluate(p, in); err == nil {
				t.Errorf("%s: Evaluate(%s) accepted the instance", path, p.Name)
			}
		}
	}
}

// fuzzSmall bounds the instances FuzzInstance evaluates, so the exact
// solver answers each in well under a millisecond.
func fuzzSmall(in *online.Instance) bool {
	if in.Queues > 8 || len(in.Arrivals) > 32 {
		return false
	}
	for _, a := range in.Arrivals {
		if a.At > 64 {
			return false
		}
	}
	return true
}

// competitiveEps is the tolerance above a proven bound before a ratio
// counts as a violation: qcomp's default -eps.
const competitiveEps = 1e-9

// boundApplies reports whether the instance lies in the model the
// policy's competitive bound is proven for: unit values in the
// multi-queue model (Bienkowski; Azar & Richter), and for cseg values
// fixed per class and non-decreasing in the class index (Al-Bawani &
// Souza). Preemptive greedy's bound holds for any values.
func boundApplies(p online.Policy, in *online.Instance) bool {
	for _, a := range in.Arrivals {
		switch {
		case p.Model == online.ModelMultiQueue:
			if a.Value != 1 {
				return false
			}
		case p.Name == "cseg":
			for _, b := range in.Arrivals {
				if a.Queue <= b.Queue && a.Value > b.Value {
					return false
				}
			}
		}
	}
	return true
}

// checkInstance evaluates the instance under the policy and returns the
// first claim the outcome breaks: no policy beats the offline optimum,
// and a policy with a proven bound earns ALG ≥ OPT/bound on the
// instances its bound covers.
func checkInstance(p online.Policy, in *online.Instance) error {
	out, err := online.Evaluate(p, in)
	if err != nil {
		return err
	}
	if out.ALG > out.OPT*(1+1e-9) {
		return fmt.Errorf("ALG %v beats OPT %v", out.ALG, out.OPT)
	}
	if p.Bound > 0 && boundApplies(p, in) && out.Ratio > p.Bound+competitiveEps {
		return fmt.Errorf("ratio %.6g exceeds the proven bound %g (ALG=%g, OPT=%g)",
			out.Ratio, p.Bound, out.ALG, out.OPT)
	}
	return nil
}

// adversarialCorpus returns every adversary's instances at every
// geometry (m, B) ∈ {2,3,4}×{1,2,3}: a deterministic construction once
// per geometry, a seeded one (random, hillclimb) against each bounded
// policy of its model at a fixed seed.
func adversarialCorpus() []*online.Instance {
	var out []*online.Instance
	for queues := 2; queues <= 4; queues++ {
		for buffer := 1; buffer <= 3; buffer++ {
			for _, adv := range validate.Adversaries() {
				if adv.Deterministic {
					out = append(out, adv.Gen(nil, online.Policy{Model: adv.Model}, queues, buffer))
					continue
				}
				for _, p := range online.Policies() {
					if p.Bound == 0 || (adv.Model != "" && adv.Model != p.Model) {
						continue
					}
					rng := sim.NewRand(int64(len(out)))
					out = append(out, adv.Gen(rng, p, queues, buffer))
				}
			}
		}
	}
	return out
}

// TestCheckInstanceFlagsFalseBound: a copy of greedy-np that claims
// greedy's bound of 2 is caught on the two-value sequence at m = 2,
// B = 3, where it is only α-competitive.
func TestCheckInstanceFlagsFalseBound(t *testing.T) {
	np, err := online.PolicyByName("greedy-np")
	if err != nil {
		t.Fatal(err)
	}
	broken := np
	broken.Bound = 2
	adv, err := validate.AdversaryByName("lb-twovalue")
	if err != nil {
		t.Fatal(err)
	}
	in := adv.Gen(nil, broken, 2, 3)
	if err := checkInstance(np, in); err != nil {
		t.Fatalf("greedy-np as registered: %v", err)
	}
	if err := checkInstance(broken, in); err == nil {
		t.Error("greedy-np claiming bound 2 passed the two-value sequence")
	}
}

// FuzzInstance feeds arbitrary bytes to Parse. Every parsed instance
// small enough for the exact solver is evaluated under every policy of
// its model: no policy may panic, beat the offline optimum, exceed its
// proven competitive bound, or keep a packet after the buffer drains.
// The seed corpus holds the adversary library's instances, so plain
// `go test` checks every bounded policy against them.
func FuzzInstance(f *testing.F) {
	for _, path := range oversized {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range adversarialCorpus() {
		if !fuzzSmall(in) {
			f.Fatalf("corpus instance %s (m=%d, B=%d) exceeds fuzzSmall", in.Name, in.Queues, in.Buffer)
		}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		`{"model":"shared","queues":1,"buffer":1,"arrivals":[]}`,
		`{"model":"shared","queues":2,"buffer":9223372036854775807,"arrivals":[{"at":0,"queue":1,"value":1e308},{"at":0,"queue":1,"value":1e308}]}`,
		`{"model":"multiqueue","queues":3,"buffer":4611686018427387904,"arrivals":[{"at":3,"queue":2,"value":0.5},{"at":0,"queue":0,"value":5e-324}]}`,
		`{"model":"shared","queues":3,"buffer":2,"arrivals":[{"at":1,"queue":2,"value":1},{"at":1,"queue":0,"value":8},{"at":0,"queue":1,"value":8}]}`,
		`{"model":"multiqueue","queues":2,"buffer":1,"arrivals":[{"at":0,"queue":2,"value":1}]}`,
		`{"model":"shared","queues":1,"buffer":1,"arrivals":null}`,
		`{"model":"shared","queues":1,"buffer":1,"arrivals":[{"at":-1,"queue":0,"value":1}]}`,
		`{"model":"shared","queues":1,"buffer":0}`,
		`{"model":"tree"}`,
		`{"queues":1}{"queues":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := online.Parse(bytes.NewReader(data))
		if err != nil || !fuzzSmall(in) {
			return
		}
		for _, p := range online.Policies() {
			if p.Model != in.Model {
				continue
			}
			if err := checkInstance(p, in); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			runAdapter(t, p, in)
		}
	})
}
