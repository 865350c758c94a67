package validate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"bufqos/internal/experiment"
	"bufqos/internal/online"
	"bufqos/internal/sim"
)

// This file is the competitive-analysis campaign: adversarial arrival
// generators for the abstract models of internal/online, and a sweep
// harness that crosses every policy with every compatible adversary and
// buffer size, measuring empirical competitive ratios against the exact
// offline optimum. cmd/qcomp drives it, and internal/online's
// FuzzInstance seeds its corpus from the same generators.

// Adversary is one seeded generator of adversarial arrival sequences.
type Adversary struct {
	// Name is the stable identifier used by `qcomp -adversaries`.
	Name string
	// Model restricts the adversary to one abstract model; "" targets
	// whichever model the policy under test uses.
	Model online.Model
	// Doc is a one-line description of the construction.
	Doc string
	// Cite anchors the construction in the literature.
	Cite string
	// Deterministic marks constructions that ignore the rng: the sweep
	// runs them once per cell instead of once per replication.
	Deterministic bool
	// Gen builds the instance one replication runs. The policy is the
	// one under test — adaptive adversaries (hillclimb) search against
	// it; oblivious ones ignore it.
	Gen func(rng *rand.Rand, p online.Policy, queues, buffer int) *online.Instance
}

// Adversaries returns the adversary library in catalogue order.
func Adversaries() []Adversary {
	return []Adversary{
		{
			Name:          "lb-multiqueue",
			Model:         online.ModelMultiQueue,
			Doc:           "the deterministic 2−1/m lower-bound construction: fill every queue, then keep re-hitting the queues a greedy server has not yet drained",
			Cite:          "Bienkowski, An Optimal Lower Bound for Buffer Management in Multi-Queue Switches (arXiv:1007.1535)",
			Deterministic: true,
			Gen:           genLowerBoundMultiQueue,
		},
		{
			Name:          "lb-twovalue",
			Model:         online.ModelShared,
			Doc:           "the two-value (1, α) sequence with α = 10: a buffer of cheap packets followed by valuable ones in the same step",
			Cite:          "non-preemptive lower bound, Al-Bawani & Souza (arXiv:1103.6049) related work",
			Deterministic: true,
			Gen:           genLowerBoundTwoValue,
		},
		{
			Name: "random",
			Doc:  "seeded random bursts: arrival counts, times, and classes drawn uniformly; shared-model values grow geometrically with the class",
			Cite: "baseline oblivious adversary",
			Gen:  genRandomInstance,
		},
		{
			Name: "hillclimb",
			Doc:  "adaptive local search: starts from a random instance and keeps any of ~200 seeded mutations that increases OPT/ALG against the policy under test",
			Cite: "adaptive adversary; standard empirical competitive-analysis practice",
			Gen:  genHillClimb,
		},
	}
}

// AdversaryNames returns the registered names in catalogue order.
func AdversaryNames() []string {
	var names []string
	for _, a := range Adversaries() {
		names = append(names, a.Name)
	}
	return names
}

// AdversaryByName resolves a registry name.
func AdversaryByName(name string) (Adversary, error) {
	for _, a := range Adversaries() {
		if a.Name == name {
			return a, nil
		}
	}
	return Adversary{}, fmt.Errorf("validate: unknown adversary %q (have %s)",
		name, strings.Join(AdversaryNames(), ", "))
}

// twoValueAlpha is the value spread of the lb-twovalue construction;
// the non-preemptive greedy baseline is exactly α-competitive on it.
const twoValueAlpha = 10.0

// genLowerBoundMultiQueue generalizes the B=1 construction to any
// per-queue buffer: phase s (steps s·B … s·B+B−1) delivers B packets to
// every queue in {s, …, m−1}, so a longest-queue-first server with a
// lowest-index tie-break wastes its early service on queues the
// adversary will refill. At B=1 the ratio is exactly 2−1/m.
func genLowerBoundMultiQueue(_ *rand.Rand, _ online.Policy, queues, buffer int) *online.Instance {
	in := &online.Instance{
		Name:   fmt.Sprintf("lb-multiqueue-m%d-B%d", queues, buffer),
		Model:  online.ModelMultiQueue,
		Queues: queues,
		Buffer: buffer,
	}
	for s := 0; s < queues; s++ {
		for q := s; q < queues; q++ {
			for j := 0; j < buffer; j++ {
				in.Arrivals = append(in.Arrivals, online.Arrival{At: s * buffer, Queue: q, Value: 1})
			}
		}
	}
	return in
}

// genLowerBoundTwoValue fills the shared buffer with B class-0 packets
// of value 1, then offers B top-class packets of value α in the same
// step: a non-preemptive policy is stuck with the cheap ones.
func genLowerBoundTwoValue(_ *rand.Rand, _ online.Policy, queues, buffer int) *online.Instance {
	in := &online.Instance{
		Name:   fmt.Sprintf("lb-twovalue-B%d", buffer),
		Model:  online.ModelShared,
		Queues: queues,
		Buffer: buffer,
	}
	for i := 0; i < buffer; i++ {
		in.Arrivals = append(in.Arrivals, online.Arrival{At: 0, Queue: 0, Value: 1})
	}
	for i := 0; i < buffer; i++ {
		in.Arrivals = append(in.Arrivals, online.Arrival{At: 0, Queue: queues - 1, Value: twoValueAlpha})
	}
	return in
}

// classValue maps a class index to its packet value in generated
// shared-model instances: geometric growth, so preemption decisions
// matter. The class-segregation model requires values non-decreasing in
// the class index, which this respects.
func classValue(class int) float64 { return math.Pow(2, float64(class)) }

// genRandomInstance draws a small oblivious instance for the policy's
// model. Sizes stay small enough that the exact solver is cheap.
func genRandomInstance(rng *rand.Rand, p online.Policy, queues, buffer int) *online.Instance {
	in := &online.Instance{
		Name:   "random",
		Model:  p.Model,
		Queues: queues,
		Buffer: buffer,
	}
	n := 2 + rng.Intn(3*buffer+8)
	horizon := 2*buffer + 4
	for i := 0; i < n; i++ {
		a := online.Arrival{
			At:    rng.Intn(horizon),
			Queue: rng.Intn(queues),
			Value: 1,
		}
		if p.Model == online.ModelShared {
			a.Value = classValue(a.Queue)
		}
		in.Arrivals = append(in.Arrivals, a)
	}
	return in
}

// hillClimbBudget bounds the mutation search of the adaptive adversary.
const hillClimbBudget = 200

// genHillClimb starts from a random instance and keeps every mutation
// (add, drop, retime, reclass) that strictly increases the policy's
// empirical ratio. The search is greedy and seeded, so a (seed, policy,
// geometry) triple always reproduces the same instance.
func genHillClimb(rng *rand.Rand, p online.Policy, queues, buffer int) *online.Instance {
	cur := genRandomInstance(rng, p, queues, buffer)
	cur.Name = "hillclimb"
	best := math.Inf(-1)
	if out, err := online.Evaluate(p, cur); err == nil {
		best = out.Ratio
	}
	maxArrivals := 4*buffer + 16
	horizon := 2*buffer + 4
	for step := 0; step < hillClimbBudget; step++ {
		cand := cur.Clone()
		switch op := rng.Intn(4); {
		case op == 0 && len(cand.Arrivals) < maxArrivals:
			a := online.Arrival{At: rng.Intn(horizon), Queue: rng.Intn(queues), Value: 1}
			if p.Model == online.ModelShared {
				a.Value = classValue(a.Queue)
			}
			cand.Arrivals = append(cand.Arrivals, a)
		case op == 1 && len(cand.Arrivals) > 1:
			i := rng.Intn(len(cand.Arrivals))
			cand.Arrivals = append(cand.Arrivals[:i], cand.Arrivals[i+1:]...)
		case op == 2:
			i := rng.Intn(len(cand.Arrivals))
			cand.Arrivals[i].At = rng.Intn(horizon)
		default:
			i := rng.Intn(len(cand.Arrivals))
			cand.Arrivals[i].Queue = rng.Intn(queues)
			if p.Model == online.ModelShared {
				cand.Arrivals[i].Value = classValue(cand.Arrivals[i].Queue)
			}
		}
		out, err := online.Evaluate(p, cand)
		if err != nil || out.Ratio <= best {
			continue
		}
		best = out.Ratio
		cur = cand
	}
	return cur
}

// CompeteOptions parameterizes one competitive sweep.
type CompeteOptions struct {
	// Policies filters the policy registry by name; nil/empty sweeps all.
	Policies []string
	// Adversaries filters the adversary library; nil/empty sweeps all.
	Adversaries []string
	// Queues is the queue (multiqueue) / class (shared) count; default 3.
	Queues int
	// Buffers lists the buffer sizes to sweep; default {1, 2, 4}.
	Buffers []int
	// Reps is the number of seeded replications per randomized cell;
	// deterministic adversaries always run once. Default 5.
	Reps int
	// Seed is the campaign seed; replication r of cell i derives
	// sim.DeriveSeed(Seed, i*1000+r), so any cell replays in isolation.
	Seed int64
	// Eps is the tolerance above a proven bound before a replication
	// counts as a violation; default 1e-9.
	Eps float64
	// Workers caps the worker pool; 0 means GOMAXPROCS. Reports are
	// bit-identical for any value.
	Workers int
	// OnDone, when non-nil, is called after each finished cell.
	OnDone func(i int)
}

func (o *CompeteOptions) defaults() {
	if o.Queues == 0 {
		o.Queues = 3
	}
	if len(o.Buffers) == 0 {
		o.Buffers = []int{1, 2, 4}
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	if o.Eps == 0 {
		o.Eps = 1e-9
	}
}

// CompeteCell is one (policy, adversary, buffer) measurement.
type CompeteCell struct {
	Policy    string  `json:"policy"`
	Adversary string  `json:"adversary"`
	Model     string  `json:"model"`
	Queues    int     `json:"queues"`
	Buffer    int     `json:"buffer"`
	Reps      int     `json:"reps"`
	Bound     float64 `json:"bound,omitempty"` // proven upper bound; 0 = none
	MeanRatio float64 `json:"mean_ratio"`
	MaxRatio  float64 `json:"max_ratio"`
	// WorstSeed replays the worst replication: `qcomp -replay` on the
	// instance the same adversary regenerates from it.
	WorstSeed int64   `json:"worst_seed"`
	WorstALG  float64 `json:"worst_alg"`
	WorstOPT  float64 `json:"worst_opt"`
	// Violations counts replications whose ratio exceeded Bound + eps
	// (always 0 for policies with no proven bound).
	Violations int `json:"violations"`
}

// CompeteReport is one finished sweep, serialized verbatim into
// BENCH_competitive.json. It contains no timestamps or host details, so
// a re-run with the same options is byte-identical.
type CompeteReport struct {
	Seed   int64         `json:"seed"`
	Queues int           `json:"queues"`
	Reps   int           `json:"reps"`
	Eps    float64       `json:"eps"`
	Cells  []CompeteCell `json:"cells"`
}

// Compete crosses the selected policies with every compatible adversary
// and buffer size, evaluates each replication against the exact offline
// optimum, and aggregates empirical competitive ratios. Cells fan out
// over the experiment worker pool into pre-assigned slots, so the
// report is bit-identical for any worker count.
func Compete(ctx context.Context, opts CompeteOptions) (*CompeteReport, error) {
	opts.defaults()
	policies, err := policiesByName(opts.Policies)
	if err != nil {
		return nil, err
	}
	adversaries, err := adversariesByName(opts.Adversaries)
	if err != nil {
		return nil, err
	}
	type cellJob struct {
		p online.Policy
		a Adversary
		b int
	}
	var jobs []cellJob
	for _, p := range policies {
		for _, a := range adversaries {
			if a.Model != "" && a.Model != p.Model {
				continue
			}
			for _, b := range opts.Buffers {
				jobs = append(jobs, cellJob{p: p, a: a, b: b})
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("validate: no policy×adversary cell matches the selection")
	}
	cells := make([]CompeteCell, len(jobs))
	runErr := experiment.ForEachJob(ctx, opts.Workers, len(jobs), nil, opts.OnDone, func(i int) error {
		j := jobs[i]
		cell := CompeteCell{
			Policy:    j.p.Name,
			Adversary: j.a.Name,
			Model:     string(j.p.Model),
			Queues:    opts.Queues,
			Buffer:    j.b,
			Bound:     j.p.Bound,
		}
		reps := opts.Reps
		if j.a.Deterministic {
			reps = 1
		}
		cell.Reps = reps
		var sum float64
		for r := 0; r < reps; r++ {
			repSeed := sim.DeriveSeed(opts.Seed, i*1000+r)
			in := j.a.Gen(sim.NewRand(repSeed), j.p, opts.Queues, j.b)
			out, err := online.Evaluate(j.p, in)
			if err != nil {
				return fmt.Errorf("validate: %s vs %s (B=%d, rep %d): %w",
					j.p.Name, j.a.Name, j.b, r, err)
			}
			sum += out.Ratio
			if r == 0 || out.Ratio > cell.MaxRatio {
				cell.MaxRatio = out.Ratio
				cell.WorstSeed = repSeed
				cell.WorstALG = out.ALG
				cell.WorstOPT = out.OPT
			}
			if j.p.Bound > 0 && out.Ratio > j.p.Bound+opts.Eps {
				cell.Violations++
			}
		}
		cell.MeanRatio = sum / float64(reps)
		cells[i] = cell
		return ctx.Err()
	})
	if runErr != nil {
		return nil, runErr
	}
	return &CompeteReport{
		Seed:   opts.Seed,
		Queues: opts.Queues,
		Reps:   opts.Reps,
		Eps:    opts.Eps,
		Cells:  cells,
	}, nil
}

// Violations returns the cells with at least one bound violation.
func (r *CompeteReport) Violations() []CompeteCell {
	var out []CompeteCell
	for _, c := range r.Cells {
		if c.Violations > 0 {
			out = append(out, c)
		}
	}
	return out
}

// policiesByName resolves a policy name filter (nil = all).
func policiesByName(names []string) ([]online.Policy, error) {
	if len(names) == 0 {
		return online.Policies(), nil
	}
	var out []online.Policy
	for _, n := range names {
		p, err := online.PolicyByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// adversariesByName resolves an adversary name filter (nil = all).
func adversariesByName(names []string) ([]Adversary, error) {
	if len(names) == 0 {
		return Adversaries(), nil
	}
	var out []Adversary
	for _, n := range names {
		a, err := AdversaryByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
