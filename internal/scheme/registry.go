package scheme

import (
	"fmt"
	"strings"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

// ParamDef documents one tunable of a scheduler or manager.
type ParamDef struct {
	// Name is the key in the spec's "?name=value" list.
	Name string
	// Default applies when the spec omits the parameter.
	Default float64
	// Doc is a one-line description (units included).
	Doc string
}

// params holds the explicitly-set parameters of a parsed spec.
type params map[string]float64

// get returns the explicit value or the definition's default.
func (p params) get(defs []ParamDef, name string) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	for _, d := range defs {
		if d.Name == name {
			return d.Default
		}
	}
	panic(fmt.Sprintf("scheme: undeclared parameter %q", name))
}

// schedulerDef is one registered scheduler.
type schedulerDef struct {
	name    string // spec token, e.g. "wfq"
	display string // label fragment for result tables, e.g. "WFQ"
	doc     string
	paper   string // paper section or reference
	takesK  bool   // accepts the ":k" queue-count argument
	// popSensitive marks schedulers whose per-flow behaviour depends on
	// the whole flow population, not just each flow's own spec: hybrid
	// aggregates (σ, ρ) over every flow in a queue to size rates and
	// buffers, and DRR normalizes quanta by the population's minimum
	// weight. Such schemes must be built with the full global population
	// even on links only a subset of flows traverses.
	popSensitive bool
	params       []ParamDef
	build        func(cfg Config, s *Scheme) (sched.Scheduler, error)
	// combined, when set, builds manager and scheduler together: the
	// hybrid architecture partitions the buffer per queue, and the
	// pushout/online policies ARE their own manager (preemption removes
	// queued packets, which no manager/scheduler split can express).
	combined func(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error)
	// allowedManagers restricts which manager names compose with a
	// combined scheduler (nil = any manager). Combined schedulers that
	// bring their own admission policy accept only "none".
	allowedManagers map[string]bool
}

// allowedManagerNames formats a combined scheduler's accepted manager
// list for error messages, in catalogue order.
func (sd *schedulerDef) allowedManagerNames() string {
	var names []string
	for _, md := range managers {
		if sd.allowedManagers[md.name] {
			names = append(names, md.name)
		}
	}
	return strings.Join(names, "/")
}

// managerDef is one registered buffer manager.
type managerDef struct {
	name    string // spec token, e.g. "threshold"
	aliases []string
	display string // label fragment, e.g. "thresholds"; "" for none
	doc     string
	paper   string
	params  []ParamDef
	build   func(cfg Config, p params) (buffer.Manager, error)
}

// thresholds computes the paper's per-flow thresholds σᵢ + ρᵢB/R.
func thresholds(cfg Config) ([]units.Bytes, error) {
	return core.Thresholds(cfg.Specs, cfg.LinkRate, cfg.Buffer)
}

// schedulers is the scheduler registry, in catalogue order.
var schedulers = []*schedulerDef{
	{
		name: "fifo", display: "FIFO",
		doc:   "single shared FIFO queue",
		paper: "§2",
		build: func(Config, *Scheme) (sched.Scheduler, error) { return sched.NewFIFO(), nil },
	},
	{
		name: "wfq", display: "WFQ",
		doc:   "per-flow weighted fair queueing (exact virtual time), weights = token rates",
		paper: "§3.2",
		build: func(cfg Config, _ *Scheme) (sched.Scheduler, error) {
			return sched.NewWFQ(cfg.LinkRate, cfg.Now, tokenRates(cfg.Specs)), nil
		},
	},
	{
		name: "hybrid", display: "hybrid",
		doc:          "k FIFO queues under WFQ (Proposition 3 rate allocation); ':k' fixes the queue count, otherwise it is derived from the flow→queue map",
		paper:        "§4",
		takesK:       true,
		popSensitive: true,
		combined: func(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
			return buildHybrid(cfg, s)
		},
		allowedManagers: hybridManagers,
	},
	{
		name: "rpq", display: "RPQ",
		doc:   "rotating priority queues, flows classed by burst-to-rate ratio",
		paper: "ref [10]",
		params: []ParamDef{
			{Name: "classes", Default: 4, Doc: "number of delay classes"},
			{Name: "interval", Default: 0.002, Doc: "rotation interval (seconds)"},
		},
		build: func(cfg Config, s *Scheme) (sched.Scheduler, error) {
			classes := s.params.get(s.sched.params, "classes")
			interval := s.params.get(s.sched.params, "interval")
			n := int(classes)
			if float64(n) != classes || n < 1 {
				return nil, fmt.Errorf("classes must be a positive integer, got %v", classes)
			}
			if interval <= 0 {
				return nil, fmt.Errorf("interval must be positive, got %v", interval)
			}
			return sched.NewRPQ(n, interval, cfg.Now, delayClasses(cfg.Specs, n)), nil
		},
	},
	{
		name: "drr", display: "DRR",
		doc:          "deficit round robin, quantum proportional to token rate",
		paper:        "related work",
		popSensitive: true,
		build: func(cfg Config, _ *Scheme) (sched.Scheduler, error) {
			return sched.NewDRR(tokenRates(cfg.Specs), cfg.packetSize()), nil
		},
	},
	{
		name: "edf", display: "EDF",
		doc:   "earliest deadline first, per-flow budget σ/ρ (burst drain time)",
		paper: "ref [4]",
		build: func(cfg Config, _ *Scheme) (sched.Scheduler, error) {
			budgets := make([]float64, len(cfg.Specs))
			for i, sp := range cfg.Specs {
				budgets[i] = sp.BucketSize.Bits() / sp.TokenRate.BitsPerSecond()
			}
			return sched.NewEDF(cfg.Now, budgets), nil
		},
	},
	{
		name: "vc", display: "VC",
		doc:   "virtual clock, rates = token rates",
		paper: "ref [8]",
		build: func(cfg Config, _ *Scheme) (sched.Scheduler, error) {
			return sched.NewVirtualClock(cfg.Now, tokenRates(cfg.Specs)), nil
		},
	},
	{
		name: "pushout", display: "pushout",
		doc:   "protective pushout FIFO (combined queue/manager): when full, an under-share flow pushes out the newest packet of the most over-share flow",
		paper: "ref [2]",
		params: []ParamDef{
			{Name: "share", Default: 0, Doc: "per-flow guaranteed share as a fraction of B; 0 derives the paper's σᵢ + ρᵢB/R thresholds"},
		},
		combined:        buildPushout,
		allowedManagers: selfManaged,
	},
	{
		name: "cgreedy", display: "cgreedy",
		doc:             "preemptive class-greedy FIFO: when full, the newest lowest-class packet is pushed out for a higher-class arrival",
		paper:           "arXiv:1103.6049",
		params:          classesParam,
		combined:        buildClassGreedy,
		allowedManagers: selfManaged,
	},
	{
		name: "classseg", display: "classseg",
		doc:             "class-segregated FIFO queues over the shared buffer, strict-priority service, lowest-class pushout",
		paper:           "arXiv:1103.6049",
		params:          classesParam,
		combined:        buildClassSeg,
		allowedManagers: selfManaged,
	},
	{
		name: "lqf", display: "LQF",
		doc:             "longest-queue-first over per-class queues with byte quotas B/classes (multi-queue switch model)",
		paper:           "arXiv:1007.1535",
		params:          classesParam,
		combined:        buildLQF,
		allowedManagers: selfManaged,
	},
	{
		name: "semigreedy", display: "semigreedy",
		doc:             "semi-greedy LQF: serve the fullest class queue above half quota, otherwise the oldest head-of-line packet",
		paper:           "arXiv:1007.1535",
		params:          classesParam,
		combined:        buildSemiGreedy,
		allowedManagers: selfManaged,
	},
}

// selfManaged marks combined schedulers that are their own admission
// policy: they compose only with the no-op manager spec.
var selfManaged = map[string]bool{"none": true}

// classesParam is the shared tunable of the class-aware online
// schemes.
var classesParam = []ParamDef{
	{Name: "classes", Default: 4, Doc: "number of service classes (flows map to classes by burst-to-rate ratio unless the topology assigns them)"},
}

// redSeedID is the DeriveSeed stream id reserved for RED's drop RNG; it
// sits far above any flow index so the manager's randomness never
// collides with a source's.
const redSeedID = 1 << 20

// managers is the buffer-manager registry, in catalogue order.
var managers = []*managerDef{
	{
		name: "none", display: "",
		doc:   "shared tail-drop buffer (no per-flow management)",
		paper: "§3.1",
		build: func(cfg Config, _ params) (buffer.Manager, error) {
			return buffer.NewTailDrop(cfg.Buffer, len(cfg.Specs)), nil
		},
	},
	{
		name: "threshold", aliases: []string{"thresholds"}, display: "thresholds",
		doc:   "fixed per-flow thresholds σᵢ + ρᵢB/R (the paper's proposal)",
		paper: "§2",
		params: []ParamDef{
			{Name: "scale", Default: 1, Doc: "multiply every computed threshold by this factor; <1 deliberately under-allocates (necessity experiments)"},
		},
		build: func(cfg Config, p params) (buffer.Manager, error) {
			scale := p.get(managerByName["threshold"].params, "scale")
			if scale <= 0 || scale > 1 {
				return nil, fmt.Errorf("scale %v outside (0,1]", scale)
			}
			th, err := thresholds(cfg)
			if err != nil {
				return nil, err
			}
			if scale != 1 {
				for i := range th {
					th[i] = units.Bytes(scale * float64(th[i]))
				}
			}
			return buffer.NewFixedThreshold(cfg.Buffer, th), nil
		},
	},
	{
		name: "sharing", display: "sharing",
		doc:   "thresholds + holes/headroom borrowing of unused buffer",
		paper: "§3.3",
		params: []ParamDef{
			{Name: "headroom", Default: 0, Doc: "headroom H as a fraction of B (omit to use the run-level headroom)"},
		},
		build: func(cfg Config, p params) (buffer.Manager, error) {
			th, err := thresholds(cfg)
			if err != nil {
				return nil, err
			}
			return buffer.NewSharing(cfg.Buffer, th, cfg.headroom(p)), nil
		},
	},
	{
		name: "dynthresh", display: "dynthresh",
		doc:   "Choudhury–Hahne dynamic threshold T(t) = α·(B − Q(t))",
		paper: "ref [1]",
		params: []ParamDef{
			{Name: "alpha", Default: 1, Doc: "control parameter α > 0"},
		},
		build: func(cfg Config, p params) (buffer.Manager, error) {
			alpha := p.get(managerByName["dynthresh"].params, "alpha")
			if alpha <= 0 {
				return nil, fmt.Errorf("alpha must be positive, got %v", alpha)
			}
			return buffer.NewDynamicThreshold(cfg.Buffer, len(cfg.Specs), alpha), nil
		},
	},
	{
		name: "red", display: "RED",
		doc:   "random early detection over the aggregate queue (no per-flow state)",
		paper: "ref [3]",
		params: []ParamDef{
			{Name: "min", Default: 0.25, Doc: "min threshold as a fraction of B"},
			{Name: "max", Default: 0.75, Doc: "max threshold as a fraction of B"},
			{Name: "maxp", Default: 0.1, Doc: "max drop probability at the max threshold"},
			{Name: "wq", Default: 0.002, Doc: "EWMA queue-average weight w_q"},
		},
		build: func(cfg Config, p params) (buffer.Manager, error) {
			defs := managerByName["red"].params
			min := p.get(defs, "min")
			max := p.get(defs, "max")
			maxp := p.get(defs, "maxp")
			wq := p.get(defs, "wq")
			if min < 0 || max <= min || max > 1 {
				return nil, fmt.Errorf("need 0 <= min < max <= 1, got min=%v max=%v", min, max)
			}
			if maxp <= 0 || maxp > 1 {
				return nil, fmt.Errorf("maxp %v outside (0,1]", maxp)
			}
			if wq <= 0 || wq > 1 {
				return nil, fmt.Errorf("wq %v outside (0,1]", wq)
			}
			minTh := units.Bytes(min * float64(cfg.Buffer))
			maxTh := units.Bytes(max * float64(cfg.Buffer))
			m := buffer.NewRED(cfg.Buffer, len(cfg.Specs), minTh, maxTh, maxp,
				sim.NewRand(sim.DeriveSeed(cfg.Seed, redSeedID)))
			m.Weight = wq
			return m, nil
		},
	},
	{
		name: "adaptive", aliases: []string{"adaptive-sharing"}, display: "adaptive-sharing",
		doc:   "sharing where only loss-adaptive flows borrow the full holes",
		paper: "§5",
		params: []ParamDef{
			{Name: "fraction", Default: 0.25, Doc: "fraction of the holes non-adaptive flows may borrow"},
			{Name: "headroom", Default: 0, Doc: "headroom H as a fraction of B (omit to use the run-level headroom)"},
		},
		build: func(cfg Config, p params) (buffer.Manager, error) {
			defs := managerByName["adaptive"].params
			fraction := p.get(defs, "fraction")
			if fraction < 0 || fraction > 1 {
				return nil, fmt.Errorf("fraction %v outside [0,1]", fraction)
			}
			th, err := thresholds(cfg)
			if err != nil {
				return nil, err
			}
			return buffer.NewAdaptiveSharing(cfg.Buffer, th, cfg.Adaptive, cfg.headroom(p), fraction), nil
		},
	},
}

// schedulerByName and managerByName index the registries, including
// aliases.
var (
	schedulerByName = map[string]*schedulerDef{}
	managerByName   = map[string]*managerDef{}
)

func init() {
	for _, d := range schedulers {
		schedulerByName[d.name] = d
	}
	for _, d := range managers {
		managerByName[d.name] = d
		for _, a := range d.aliases {
			managerByName[a] = d
		}
	}
}

// hybridManagers lists the manager names the hybrid architecture
// supports: its buffer is partitioned per queue, so only partitionable
// policies compose with it.
var hybridManagers = map[string]bool{"none": true, "threshold": true, "sharing": true}

// buildHybrid assembles the §4.2 configuration: Proposition 3 rate
// allocation across queues, buffer partitioning in proportion to the
// per-queue minimum requirements, per-flow thresholds within queues,
// and one manager per queue (sharing, fixed-threshold, or tail-drop
// according to the spec's manager).
func buildHybrid(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
	if !s.sched.allowedManagers[s.mgr.name] {
		return nil, nil, fmt.Errorf("scheme %s: hybrid supports %s managers, not %q", s.Spec(), s.sched.allowedManagerNames(), s.mgr.name)
	}
	if len(cfg.QueueOf) != len(cfg.Specs) {
		return nil, nil, fmt.Errorf("scheme %s: hybrid needs QueueOf for every flow (%d maps for %d flows)", s.Spec(), len(cfg.QueueOf), len(cfg.Specs))
	}
	k := 0
	for _, q := range cfg.QueueOf {
		if q+1 > k {
			k = q + 1
		}
	}
	// An explicit queue count must match the map exactly: a larger k
	// would create unpopulated queues with zero reserved rate, which the
	// Proposition 3 allocation (and WFQ weights) cannot serve.
	if s.k > 0 && k != s.k {
		return nil, nil, fmt.Errorf("scheme %s: spec fixes %d queues but the flow→queue map uses %d", s.Spec(), s.k, k)
	}
	groups, err := core.GroupFlows(cfg.Specs, cfg.QueueOf, k)
	if err != nil {
		return nil, nil, err
	}
	rates, err := core.AllocateHybrid(cfg.LinkRate, groups)
	if err != nil {
		return nil, nil, err
	}
	minBuf, err := core.HybridBufferPerQueue(cfg.LinkRate, groups)
	if err != nil {
		return nil, nil, err
	}
	queueBuf := core.PartitionBuffer(cfg.Buffer, minBuf)
	th, err := core.HybridThresholds(cfg.Specs, cfg.QueueOf, groups, queueBuf)
	if err != nil {
		return nil, nil, err
	}
	headroom := cfg.headroom(s.params)
	queueMgrs := make([]buffer.Manager, k)
	for q := 0; q < k; q++ {
		// Per-queue thresholds vector, zero for non-member flows (they
		// are never seen by this queue's manager).
		qth := make([]units.Bytes, len(cfg.Specs))
		for i, f := range cfg.QueueOf {
			if f == q {
				qth[i] = th[i]
			}
		}
		switch s.mgr.name {
		case "none":
			queueMgrs[q] = buffer.NewTailDrop(queueBuf[q], len(cfg.Specs))
		case "threshold":
			queueMgrs[q] = buffer.NewFixedThreshold(queueBuf[q], qth)
		default: // sharing; headroom is split like the buffer
			var h units.Bytes
			if cfg.Buffer > 0 {
				h = units.Bytes(float64(headroom) * float64(queueBuf[q]) / float64(cfg.Buffer))
			}
			queueMgrs[q] = buffer.NewSharing(queueBuf[q], qth, h)
		}
	}
	mgr := buffer.NewPartitioned(cfg.QueueOf, queueMgrs)
	scheduler := sched.NewHybrid(cfg.LinkRate, cfg.Now, cfg.QueueOf, rates)
	return mgr, scheduler, nil
}
