// Package scheme is the registry of composable QoS schemes. The paper's
// evaluation crosses a scheduler (FIFO, WFQ, the §4 hybrid, RPQ, DRR)
// with a buffer-management policy (tail-drop, fixed per-flow
// thresholds, the §3.3 sharing scheme, Choudhury–Hahne dynamic
// thresholds, RED, adaptive sharing); this package makes every such
// combination addressable by one parseable spec string, e.g.
//
//	fifo+threshold                 the paper's scheme 1
//	wfq+sharing                    scheme 2 with buffer sharing
//	hybrid:3+sharing               §4 architecture with 3 queues
//	fifo+red?min=0.25,max=0.75     RED with explicit thresholds
//	fifo+dynthresh?alpha=2         Choudhury–Hahne with α = 2
//
// The grammar is
//
//	spec    := sched [":" k] "+" manager ["?" params]
//	params  := key "=" value {"," key "=" value}
//
// A bare scheduler name ("wfq") means tail-drop ("wfq+none"); a bare
// manager name ("sharing") means FIFO scheduling ("fifo+sharing").
// Legacy display labels such as "FIFO+thresholds" parse too, so result
// tables and CLI flags round-trip.
//
// Parse resolves a spec against the registry and returns a *Scheme; its
// NewLink method builds the (buffer.Manager, sched.Scheduler) pair for a
// concrete link described by a Config and starts a *sched.Link on them.
// Every layer of the repository that runs a spec — experiment runs, the
// sizing cells, the topology engine, and the CLIs — gets its data plane
// from that one call, so adding a scheme is a single registration
// visible everywhere at once.
package scheme

import (
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// Config describes the link a scheme is instantiated on: the flow
// population's declared profiles plus the link's physical parameters.
// It is everything a Builder may consult, independent of which scheme
// is being built.
type Config struct {
	// Specs are the declared (σ, ρ, peak) profiles, one per flow.
	Specs []packet.FlowSpec
	// LinkRate is the output link capacity R.
	LinkRate units.Rate
	// Buffer is the total buffer B.
	Buffer units.Bytes
	// Headroom is the sharing headroom H. A spec-level headroom
	// parameter (a fraction of B) overrides it.
	Headroom units.Bytes
	// QueueOf maps flows to queues for the hybrid scheduler (required
	// by hybrid specs, ignored otherwise).
	QueueOf []int
	// Adaptive marks flows that respond to loss; the adaptive-sharing
	// manager restricts borrowing for the others. Nil means all flows
	// are adaptive.
	Adaptive []bool
	// Classes maps flows to service classes for the class-aware online
	// schemes (cgreedy, classseg, lqf, semigreedy); higher class = more
	// valuable. Nil derives classes from each flow's burst-to-rate
	// ratio, smooth (telephony-like) flows landing in the most valuable
	// classes.
	Classes []int
	// PacketSize is the MTU used by quantum-based schedulers (DRR).
	// Zero defaults to 500 bytes, the paper's maximum packet size.
	PacketSize units.Bytes
	// Now is the simulation clock, required by time-stamping schedulers
	// (WFQ, hybrid, RPQ). NewLink sets it to its simulator's.
	Now func() float64
	// Seed derives the RNG of randomized managers (RED) so runs stay
	// reproducible.
	Seed int64
}

// DefaultPacketSize is the MTU assumed when Config.PacketSize is zero.
const DefaultPacketSize units.Bytes = 500

func (c *Config) packetSize() units.Bytes {
	if c.PacketSize > 0 {
		return c.PacketSize
	}
	return DefaultPacketSize
}

// headroom resolves the sharing headroom: the spec-level parameter (a
// fraction of B) wins over the Config field.
func (c *Config) headroom(p params) units.Bytes {
	if f, ok := p["headroom"]; ok {
		return units.Bytes(f * float64(c.Buffer))
	}
	return c.Headroom
}

// Scheme is a parsed spec: one scheduler crossed with one buffer
// manager, plus their parameters. Values are immutable after Parse and
// safe to share across goroutines.
type Scheme struct {
	sched  *schedulerDef
	mgr    *managerDef
	k      int // hybrid queue count; 0 = derive from Config.QueueOf
	params params
}

// Build constructs the data plane of one link: the buffer manager and
// the scheduler, wired for cfg. The same Scheme may build any number of
// links (each call returns fresh state). A population-insensitive
// scheme builds over no flows too (a link no flow traverses); a
// population-sensitive one needs its population.
func (s *Scheme) Build(cfg Config) (buffer.Manager, sched.Scheduler, error) {
	if len(cfg.Specs) == 0 && s.PopulationSensitive() {
		return nil, nil, fmt.Errorf("scheme %s: no flows", s.Spec())
	}
	if s.sched.combined != nil {
		return s.sched.combined(cfg, s)
	}
	mgr, err := s.mgr.build(cfg, s.params)
	if err != nil {
		return nil, nil, fmt.Errorf("scheme %s: %w", s.Spec(), err)
	}
	sc, err := s.sched.build(cfg, s)
	if err != nil {
		return nil, nil, fmt.Errorf("scheme %s: %w", s.Spec(), err)
	}
	return mgr, sc, nil
}

// NewLink is the one path from a spec to a running link: it builds the
// scheme's manager and scheduler for cfg on s's clock (cfg.Now is
// overwritten) and wires them into a link of cfg.LinkRate reporting to
// col, which may be nil.
func (s *Scheme) NewLink(sm *sim.Simulator, cfg Config, col *stats.Collector) (*sched.Link, error) {
	cfg.Now = sm.Now
	mgr, sc, err := s.Build(cfg)
	if err != nil {
		return nil, err
	}
	return sched.NewLink(sm, cfg.LinkRate, sc, mgr, col), nil
}

// SchedulerName returns the registry name of the scheme's scheduler
// (e.g. "wfq").
func (s *Scheme) SchedulerName() string { return s.sched.name }

// ManagerName returns the registry name of the scheme's buffer manager
// (e.g. "threshold").
func (s *Scheme) ManagerName() string { return s.mgr.name }

// Queues returns the explicit hybrid queue count (0 when derived from
// Config.QueueOf or for non-hybrid schedulers).
func (s *Scheme) Queues() int { return s.k }

// PopulationSensitive reports whether the scheme's per-flow behaviour
// depends on the whole flow population rather than only each flow's own
// spec (hybrid's aggregate rate/buffer allocation, DRR's min-weight
// quantum normalization). A scenario engine may build a
// population-insensitive scheme with just the flows traversing a link —
// per-flow thresholds, weights, budgets, and delay classes come out
// identical — but a sensitive one must always see the full population.
func (s *Scheme) PopulationSensitive() bool { return s.sched.popSensitive }

// Param returns a parameter's effective value (explicit or default) and
// whether the scheme defines it at all.
func (s *Scheme) Param(name string) (float64, bool) {
	if v, ok := s.params[name]; ok {
		return v, true
	}
	for _, d := range s.paramDefs() {
		if d.Name == name {
			return d.Default, true
		}
	}
	return 0, false
}

// paramDefs returns the parameter definitions the scheme accepts, in
// catalogue order (scheduler's first, then manager's).
func (s *Scheme) paramDefs() []ParamDef {
	defs := append([]ParamDef(nil), s.sched.params...)
	return append(defs, s.mgr.params...)
}

// tokenRates returns the WFQ/DRR weights: "the token rate is used to
// determine the weight used for the flow".
func tokenRates(specs []packet.FlowSpec) []units.Rate {
	rates := make([]units.Rate, len(specs))
	for i, s := range specs {
		rates[i] = s.TokenRate
	}
	return rates
}

// delayClasses maps flows to RPQ delay classes by their burst-to-rate
// ratio σ/ρ: smooth low-burst flows (telephony-like) get tighter
// classes, bursty ones looser — the same classification intuition as
// the paper's §4.1 queue-grouping guidance.
func delayClasses(specs []packet.FlowSpec, numClasses int) []int {
	classes := make([]int, len(specs))
	for i, s := range specs {
		ratio := s.BucketSize.Bits() / s.TokenRate.BitsPerSecond() // seconds of burst
		var c int
		switch {
		case ratio < 0.05:
			c = 0
		case ratio < 0.15:
			c = 1
		case ratio < 0.5:
			c = 2
		default:
			c = 3
		}
		if c >= numClasses {
			c = numClasses - 1
		}
		classes[i] = c
	}
	return classes
}
