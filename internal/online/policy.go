package online

import (
	"fmt"
	"math"
)

// Policy is one registered online buffer-management policy.
type Policy struct {
	// Name is the stable identifier used by qcomp -policies.
	Name string
	// Model is the buffer discipline the policy is defined over.
	Model Model
	// Doc is a one-line description.
	Doc string
	// Bound is the proven competitive-ratio upper bound (OPT/ALG never
	// exceeds it on any sequence of the model Cite proves it for); 0
	// means no finite bound is known.
	Bound float64
	// Cite anchors the bound in the literature.
	Cite string
	// New builds a fresh run over the instance's geometry (and, for
	// value-ranked policies, its values).
	New func(in *Instance) *Algo
}

// Policies returns the policy registry in catalogue order.
func Policies() []Policy {
	return []Policy{
		{
			Name:  "greedy",
			Model: ModelShared,
			Doc:   "value-aware preemptive greedy: admit when room, else preempt the newest minimum-value packet if the arrival is worth more",
			Bound: 2,
			Cite:  "Kesselman et al., Buffer Overflow Management in QoS Switches (the baseline of arXiv:1103.6049)",
			New:   valueGreedy,
		},
		{
			Name:  "greedy-np",
			Model: ModelShared,
			Doc:   "non-preemptive greedy: admit exactly when room; never evicts, so it is only Θ(α)-competitive on two-value (1, α) sequences",
			Bound: 0,
			Cite:  "two-value lower bound, arXiv:1103.6049 §1 related work",
			New:   nonPreemptiveGreedy,
		},
		{
			Name:  "cseg",
			Model: ModelShared,
			Doc:   "class-segregated greedy: per-class FIFO queues over the shared buffer, highest class served first, overflow preempts the newest packet of the lowest buffered class",
			Bound: 2,
			Cite:  "Al-Bawani & Souza, Buffer Overflow Management with Class Segregation (arXiv:1103.6049)",
			New:   classSeg,
		},
		{
			Name:  "lqf",
			Model: ModelMultiQueue,
			Doc:   "longest queue first: admit when the packet's queue has room, serve the longest queue (ties to the lowest index)",
			Bound: 2,
			Cite:  "work-conserving bound, Azar & Richter (cited by arXiv:1007.1535); no deterministic policy beats 2−1/m at B=1",
			New:   func(in *Instance) *Algo { return multiQueue(in, false) },
		},
		{
			Name:  "semigreedy",
			Model: ModelMultiQueue,
			Doc:   "semi-greedy LQF: serve the fullest queue that is above half capacity, otherwise the queue with the oldest head packet",
			Bound: 2,
			Cite:  "semi-greedy family, Azar & Richter (cited by arXiv:1007.1535)",
			New:   func(in *Instance) *Algo { return multiQueue(in, true) },
		},
	}
}

// BoundApplies reports whether the instance lies in the model the
// policy's competitive bound is proven for: unit values in the
// multi-queue model (Bienkowski; Azar & Richter), and for cseg values
// fixed per class and non-decreasing in the class index (Al-Bawani &
// Souza). Preemptive greedy's bound holds for any values. Outside its
// model a ratio above Bound breaks no claim.
func (p Policy) BoundApplies(in *Instance) bool {
	for _, a := range in.Arrivals {
		switch {
		case p.Model == ModelMultiQueue:
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

// PolicyByName resolves a registry name.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("online: unknown policy %q (have %s)", name, PolicyNames())
}

// PolicyNames returns the registered names in catalogue order.
func PolicyNames() []string {
	var names []string
	for _, p := range Policies() {
		names = append(names, p.Name)
	}
	return names
}

// Run replays the instance through the policy and returns the benefit
// (total value transmitted). The instance is validated (which sorts
// arrivals by time); each step offers the step's arrivals in sequence
// order, then transmits once; after the last arrival the buffers
// drain.
func Run(p Policy, in *Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if p.Model != in.Model {
		return 0, fmt.Errorf("online: policy %s is a %s-model policy, instance %s is %s", p.Name, p.Model, in.Name, in.Model)
	}
	if err := in.checkSize(); err != nil {
		return 0, err
	}
	algo := p.New(in)
	var benefit float64
	i := 0
	for t := 0; ; t++ {
		for i < len(in.Arrivals) && in.Arrivals[i].At == t {
			algo.Arrive(in.Arrivals[i])
			i++
		}
		if a, ok := algo.Transmit(); ok {
			benefit += a.Value
		}
		if i >= len(in.Arrivals) && algo.Backlog() == 0 {
			return benefit, nil
		}
	}
}

// Outcome is one measured policy-vs-optimum comparison.
type Outcome struct {
	// ALG is the policy's benefit, OPT the offline optimum's.
	ALG, OPT float64
	// Ratio is OPT/ALG (math.Inf(1) when ALG is 0 and OPT is not).
	Ratio float64
}

// Evaluate runs the policy and the exact offline solver on the same
// instance and returns the empirical competitive ratio.
func Evaluate(p Policy, in *Instance) (Outcome, error) {
	alg, err := Run(p, in)
	if err != nil {
		return Outcome{}, err
	}
	opt, err := Opt(in)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{ALG: alg, OPT: opt, Ratio: ratio(opt, alg)}, nil
}

func ratio(opt, alg float64) float64 {
	switch {
	case alg > 0:
		return opt / alg
	case opt > 0:
		return math.Inf(1)
	default:
		return 1
	}
}
