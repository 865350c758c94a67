package validate

import (
	"fmt"
	"math/rand"
	"strconv"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// Kind classifies the scenario families the generator draws from. Each
// family stresses a different slice of the engine while staying inside
// the paper's schedulability region, so every oracle is expected to
// hold on every generated scenario (at ThresholdScale 1).
type Kind string

const (
	// KindSingleLink is one output port shared by conformant shaped
	// flows plus, sometimes, a non-conformant aggressor — the paper's §2
	// setting.
	KindSingleLink Kind = "single-link"
	// KindDifferential is a single fifo+threshold link carrying only
	// greedy shaped flows: the packet run has a closed-form fluid twin
	// the differential oracle compares against.
	KindDifferential Kind = "differential"
	// KindTandem is a 2–3 hop chain with contiguous sub-path routes —
	// the §2.4 "guarantees compose hop by hop" reading.
	KindTandem Kind = "tandem"
	// KindChurn adds a timeline: late joins, leaves, and occasionally a
	// bandwidth-limited hog that admission control must reject (§2.3).
	KindChurn Kind = "churn"
	// KindTCP is the closed-loop family: a guaranteed bottleneck with a
	// reverse link, carrying 2–4 TCP sources with asymmetric
	// reservations. It exercises the feedback path (ACKs, drop
	// notifications, retransmissions) and the tcp-goodput-floor oracle.
	KindTCP Kind = "tcp"
	// KindRegistry draws an arbitrary spec from the full scheme registry
	// (RED, DRR, hybrid, …). Such links carry no zero-loss guarantee, so
	// only the scheme-independent oracles (conservation, rejection
	// silence) apply — but every future registry entry gets fuzzed for
	// free.
	KindRegistry Kind = "registry"
	// KindBroken is the adversarial family generated when
	// GenConfig.ThresholdScale < 1: a deliberately under-allocated
	// threshold link arranged so the Proposition 2 guarantee measurably
	// fails, exercising the shrinker and the repro pipeline.
	KindBroken Kind = "broken-threshold"
)

// GenConfig parameterizes generation.
type GenConfig struct {
	// ThresholdScale multiplies every threshold-manager allocation via
	// the registry's `threshold?scale=` parameter. 1 (or 0, the zero
	// value) generates paper-faithful scenarios on which all oracles
	// must hold. Any value in (0,1) switches to the broken-threshold
	// family: scenarios engineered so the under-allocation causes
	// conformant loss that the oracles must catch.
	ThresholdScale float64
}

// Scenario is one generated case: a validated topology plus the family
// it came from (which decides the oracles that apply to it).
type Scenario struct {
	Kind Kind
	Seed int64
	Topo *topology.Topology
}

// Generate builds the scenario for one case seed. It is fully
// deterministic: the same (seed, cfg) always yields the same scenario,
// and all randomness flows through one sim.NewRand stream consumed in a
// fixed order. The returned topology is already validated.
func Generate(seed int64, cfg GenConfig) (*Scenario, error) {
	if cfg.ThresholdScale == 0 {
		cfg.ThresholdScale = 1
	}
	if cfg.ThresholdScale < 0 || cfg.ThresholdScale > 1 {
		return nil, fmt.Errorf("validate: threshold scale %v outside (0, 1]", cfg.ThresholdScale)
	}
	rng := sim.NewRand(seed)
	var sc *Scenario
	if cfg.ThresholdScale < 1 {
		sc = genBroken(rng, cfg.ThresholdScale)
	} else {
		switch x := rng.Float64(); {
		case x < 0.26:
			sc = genSingleLink(rng, KindSingleLink)
		case x < 0.44:
			sc = genDifferential(rng)
		case x < 0.64:
			sc = genTandem(rng)
		case x < 0.78:
			sc = genChurn(rng)
		case x < 0.92:
			sc = genTCP(rng)
		default:
			sc = genRegistry(rng)
		}
	}
	sc.Seed = seed
	sc.Topo.Name = fmt.Sprintf("fuzz-%s-%d", sc.Kind, seed)
	if err := sc.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("validate: generator bug (seed %d, kind %s): %w", seed, sc.Kind, err)
	}
	return sc, nil
}

func unif(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// guaranteedSpecs is the scheme subset that carries the paper's
// zero-conformant-loss guarantee; see topology.(*Link).Guaranteed.
// threshold is weighted up because it is the paper's headline scheme.
var guaranteedSpecs = []string{
	"fifo+threshold", "fifo+threshold", "wfq+threshold",
	"fifo+sharing", "wfq+sharing",
}

// conformantFlow draws a shaped flow with a modest (σ, ρ, peak)
// envelope and a source that stays inside it.
func conformantFlow(rng *rand.Rand, name string, route []string) topology.Flow {
	rho := units.MbitsPerSecond(unif(rng, 0.5, 8))
	sigma := units.KiloBytes(unif(rng, 10, 100))
	peak := units.Rate(float64(rho) * unif(rng, 2, 5))
	f := topology.Flow{
		Name:       name,
		RouteNodes: route,
		Spec:       packet.FlowSpec{PeakRate: peak, TokenRate: rho, BucketSize: sigma},
		Shaped:     true,
	}
	switch x := rng.Float64(); {
	case x < 0.55:
		f.Source = topology.SourceGreedy
	case x < 0.80:
		f.Source = topology.SourceCBR
		f.AvgRate = rho
	default:
		f.Source = topology.SourceOnOff
		f.AvgRate = units.Rate(float64(rho) * unif(rng, 0.8, 1.0))
	}
	return f
}

// aggressor draws an unshaped flow that reserves a small (σ, ρ) but
// offers far more — the traffic the thresholds exist to police. Its
// rates are set relative to the link rate once that is known.
func aggressor(rng *rand.Rand, name string, route []string) topology.Flow {
	return topology.Flow{
		Name:       name,
		RouteNodes: route,
		Spec: packet.FlowSpec{
			TokenRate:  units.MbitsPerSecond(unif(rng, 0.3, 1.2)),
			BucketSize: units.KiloBytes(unif(rng, 15, 50)),
		},
		Source: topology.SourceCBR,
		Shaped: false,
	}
}

// finishAggressors fixes each aggressor's offered rate relative to the
// link rate (drawn earlier would bias the utilization computation).
func finishAggressors(rng *rand.Rand, flows []topology.Flow, r units.Rate) {
	for i := range flows {
		if flows[i].Shaped {
			continue
		}
		offered := units.Rate(r.BitsPerSecond() * unif(rng, 0.5, 1.2))
		flows[i].Spec.PeakRate = offered
		flows[i].AvgRate = offered
	}
}

// reservedTotals sums the shaped population's reservation.
func reservedTotals(flows []topology.Flow) (sigma units.Bytes, rho units.Rate) {
	for i := range flows {
		sigma += flows[i].Spec.BucketSize
		rho += flows[i].Spec.TokenRate
	}
	return sigma, rho
}

// genSingleLink builds the §2 setting: one port, 2–6 conformant shaped
// flows, sometimes an aggressor, buffer comfortably above the eq. (9)
// minimum so Proposition 2 holds with margin to spare.
func genSingleLink(rng *rand.Rand, kind Kind) *Scenario {
	route := []string{"src", "dst"}
	n := 2 + rng.Intn(5)
	var flows []topology.Flow
	for i := 0; i < n; i++ {
		flows = append(flows, conformantFlow(rng, fmt.Sprintf("f%d", i), route))
	}
	hasAggressor := rng.Float64() < 0.4
	if hasAggressor {
		flows = append(flows, aggressor(rng, "aggressor", route))
	}
	_, rho := reservedTotals(flows)
	u := unif(rng, 0.35, 0.8)
	r := units.Rate(rho.BitsPerSecond() / u)
	finishAggressors(rng, flows, r)
	specs := flowSpecs(flows)
	bmin, err := core.RequiredBufferFIFO(specs, r)
	if err != nil {
		panic(fmt.Sprintf("validate: u=%v below 1 yet bandwidth limited: %v", u, err))
	}
	spec := guaranteedSpecs[rng.Intn(len(guaranteedSpecs))]
	margin := unif(rng, 1.3, 2.5)
	if hasAggressor {
		// Aggressors press the shared pools; keep extra slack so the
		// sharing variant's headroom never starves a conformant flow.
		margin += 0.7
	}
	l := topology.Link{
		From: "src", To: "dst",
		Rate:   r,
		Buffer: units.Bytes(float64(bmin) * margin),
		Spec:   spec,
	}
	if scheme.MustParse(spec).ManagerName() == "sharing" {
		l.Headroom = units.Bytes(float64(l.Buffer) * unif(rng, 0.3, 0.5))
	}
	return &Scenario{
		Kind: kind,
		Topo: &topology.Topology{
			Description: "generated: single guaranteed link",
			Links:       []topology.Link{l},
			Flows:       flows,
		},
	}
}

// genDifferential builds the fluid-twin family: one fifo+threshold
// link, 2–4 greedy shaped flows, nothing else. The arrival process of
// every flow is then exactly the (σ, ρ, peak) envelope, which the
// differential oracle can replay through internal/fluid.
func genDifferential(rng *rand.Rand) *Scenario {
	route := []string{"src", "dst"}
	n := 2 + rng.Intn(3)
	var flows []topology.Flow
	for i := 0; i < n; i++ {
		f := conformantFlow(rng, fmt.Sprintf("f%d", i), route)
		f.Source = topology.SourceGreedy
		f.AvgRate = 0
		flows = append(flows, f)
	}
	_, rho := reservedTotals(flows)
	u := unif(rng, 0.35, 0.75)
	r := units.Rate(rho.BitsPerSecond() / u)
	bmin, err := core.RequiredBufferFIFO(flowSpecs(flows), r)
	if err != nil {
		panic(fmt.Sprintf("validate: differential generator: %v", err))
	}
	return &Scenario{
		Kind: KindDifferential,
		Topo: &topology.Topology{
			Description: "generated: fluid-differential single link",
			Links: []topology.Link{{
				From: "src", To: "dst",
				Rate:   r,
				Buffer: units.Bytes(float64(bmin) * unif(rng, 1.3, 2.2)),
				Spec:   "fifo+threshold",
			}},
			Flows: flows,
		},
	}
}

// genTandem builds a 2–3 link chain. Flows take contiguous sub-paths
// and are limited to greedy/cbr sources: on-off jitter compounds across
// hops and would need far larger (and less interesting) buffers.
// Downstream buffers are provisioned against jitter-inflated bursts:
// a flow crossing earlier hops can arrive at hop h with an effective
// burst of σ + ρ·Σ_{upstream}(B/R + prop), so each link's eq. (9)
// minimum is computed over those inflated profiles.
func genTandem(rng *rand.Rand) *Scenario {
	nLinks := 2 + rng.Intn(2)
	nodes := make([]string, nLinks+1)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
	}
	n := 2 + rng.Intn(4)
	var flows []topology.Flow
	for i := 0; i < n; i++ {
		a := rng.Intn(nLinks)
		b := a + 1 + rng.Intn(nLinks-a)
		f := conformantFlow(rng, fmt.Sprintf("f%d", i), nodes[a:b+1])
		if f.Source == topology.SourceOnOff {
			f.Source = topology.SourceGreedy
			f.AvgRate = 0
		}
		// Tame peaks: downstream burstiness grows with (peak − ρ).
		f.Spec.PeakRate = units.Rate(float64(f.Spec.TokenRate) * unif(rng, 1.5, 2.5))
		flows = append(flows, f)
	}
	// Ensure the first link carries at least one flow so every link has
	// a non-empty population (RequiredBufferFIFO needs flows; links with
	// zero traffic are legal but dull).
	if flows[0].RouteNodes[0] != nodes[0] {
		flows[0].RouteNodes = nodes[:len(flows[0].RouteNodes)]
	}

	links := make([]topology.Link, nLinks)
	// delayUpTo[h] accumulates the worst-case queue+propagation delay of
	// hops before h, used to inflate downstream burst profiles.
	jitter := make([]float64, nLinks) // per-link B/R + prop, filled in order
	for h := 0; h < nLinks; h++ {
		var sigma float64
		var rho units.Rate
		for i := range flows {
			hop := hopIndex(flows[i].RouteNodes, nodes, h)
			if hop < 0 {
				continue
			}
			s := flows[i].Spec
			infl := float64(s.BucketSize)
			for up := 0; up < hop; up++ {
				infl += s.TokenRate.BytesPerSecond() * jitter[hopLink(flows[i].RouteNodes, nodes, up)]
			}
			sigma += infl
			rho += s.TokenRate
		}
		u := unif(rng, 0.35, 0.7)
		var r units.Rate
		var bmin float64
		if rho > 0 {
			r = units.Rate(rho.BitsPerSecond() / u)
			bmin = r.BitsPerSecond() * sigma / (r.BitsPerSecond() - rho.BitsPerSecond())
		} else {
			// No flow crosses this hop; give it sane defaults.
			r = units.MbitsPerSecond(unif(rng, 10, 30))
			bmin = float64(units.KiloBytes(100))
		}
		buf := units.Bytes(bmin * unif(rng, 1.5, 2.2))
		prop := unif(rng, 0, 2e-3)
		links[h] = topology.Link{
			From: nodes[h], To: nodes[h+1],
			Rate:      r,
			Buffer:    buf,
			PropDelay: prop,
			Spec:      guaranteedSpecs[rng.Intn(len(guaranteedSpecs))],
		}
		if scheme.MustParse(links[h].Spec).ManagerName() == "sharing" {
			links[h].Headroom = units.Bytes(float64(buf) * unif(rng, 0.3, 0.5))
		}
		jitter[h] = float64(buf)/r.BytesPerSecond() + prop
	}
	return &Scenario{
		Kind: KindTandem,
		Topo: &topology.Topology{
			Description: "generated: multi-hop tandem",
			Links:       links,
			Flows:       flows,
		},
	}
}

// hopIndex returns the position of chain link h within the flow's
// route, or -1 when the flow does not cross it.
func hopIndex(route, nodes []string, h int) int {
	for i := 0; i+1 < len(route); i++ {
		if route[i] == nodes[h] && route[i+1] == nodes[h+1] {
			return i
		}
	}
	return -1
}

// hopLink returns the chain index of the flow's up-th hop. Routes are
// contiguous sub-paths, so this is start + up.
func hopLink(route, nodes []string, up int) int {
	for i := range nodes {
		if nodes[i] == route[0] {
			return i + up
		}
	}
	return up
}

// genChurn extends a single-link scenario with a timeline: one late
// join, one mid-run leave, occasionally a link failure blip (flows
// crossing it become "degraded" and are measured, not asserted), and
// occasionally a hog whose reservation exceeds the link — admission
// control must reject it and it must stay silent.
func genChurn(rng *rand.Rand) *Scenario {
	sc := genSingleLink(rng, KindChurn)
	t := sc.Topo
	t.Description = "generated: single link with churn timeline"
	var shaped []int
	for i := range t.Flows {
		if t.Flows[i].Shaped {
			shaped = append(shaped, i)
		}
	}
	// A late joiner: admission re-checks mid-run with traffic flowing.
	join := shaped[rng.Intn(len(shaped))]
	t.Events = append(t.Events, topology.Event{
		At:   unif(rng, 0.2, 0.6),
		Kind: topology.EventJoin,
		Flow: t.Flows[join].Name,
	})
	// A leaver among the t=0 flows (joining then leaving would also be
	// legal, but separating the two exercises both transitions).
	if len(shaped) > 1 {
		leave := shaped[(indexOf(shaped, join)+1)%len(shaped)]
		t.Events = append(t.Events, topology.Event{
			At:   unif(rng, 1.0, 1.6),
			Kind: topology.EventLeave,
			Flow: t.Flows[leave].Name,
		})
	}
	if rng.Float64() < 0.5 {
		// A hog that oversubscribes the link's rate: the FIFO region's
		// bandwidth constraint (eq. 7) must bounce it.
		t.Flows = append(t.Flows, topology.Flow{
			Name:       "hog",
			RouteNodes: []string{"src", "dst"},
			Spec: packet.FlowSpec{
				PeakRate:   t.Links[0].Rate * 2,
				TokenRate:  t.Links[0].Rate,
				BucketSize: units.KiloBytes(50),
			},
			Source: topology.SourceCBR,
			Shaped: true,
		})
		t.Events = append(t.Events, topology.Event{
			At:   unif(rng, 0.3, 0.8),
			Kind: topology.EventJoin,
			Flow: "hog",
		})
	}
	if rng.Float64() < 0.25 {
		at := unif(rng, 0.8, 1.2)
		// Link names are still empty here (Validate defaults them to
		// "from->to" later), so spell the default out.
		name := t.Links[0].From + "->" + t.Links[0].To
		t.Events = append(t.Events,
			topology.Event{At: at, Kind: topology.EventFail, Link: name},
			topology.Event{At: at + unif(rng, 0.1, 0.3), Kind: topology.EventRecover, Link: name},
		)
	}
	return sc
}

// genTCP builds the closed-loop family: one guaranteed bottleneck
// src -> dst with a reverse link dst -> src carrying acknowledgements,
// and 2–4 TCP flows with asymmetric reservations. Utilization stays at
// or below 0.6 and the buffer is generous (admission must accept every
// flow), so the goodput-floor oracle's ρ/2 bar is comfortably clear of
// slow-start transients over the 2 s default horizon.
func genTCP(rng *rand.Rand) *Scenario {
	route := []string{"src", "dst"}
	n := 2 + rng.Intn(3)
	var flows []topology.Flow
	for i := 0; i < n; i++ {
		// Asymmetric reservations: each flow doubles the previous band,
		// so big and small windows compete across a wide ρ spread.
		lo := 0.5 * float64(int(1)<<i)
		flows = append(flows, topology.Flow{
			Name:       fmt.Sprintf("tcp%d", i),
			RouteNodes: route,
			Spec: packet.FlowSpec{
				TokenRate:  units.MbitsPerSecond(unif(rng, lo, 2*lo)),
				BucketSize: units.KiloBytes(unif(rng, 8, 16)),
			},
			Source: topology.SourceTCP,
		})
	}
	_, rho := reservedTotals(flows)
	u := unif(rng, 0.4, 0.6)
	r := units.Rate(rho.BitsPerSecond() / u)
	bmin, err := core.RequiredBufferFIFO(flowSpecs(flows), r)
	if err != nil {
		panic(fmt.Sprintf("validate: tcp generator: u=%v below 1 yet bandwidth limited: %v", u, err))
	}
	spec := guaranteedSpecs[rng.Intn(len(guaranteedSpecs))]
	buf := units.Bytes(float64(bmin) * unif(rng, 1.8, 3.0))
	prop := unif(rng, 1e-4, 1e-3)
	links := []topology.Link{
		{From: "src", To: "dst", Rate: r, Buffer: buf, PropDelay: prop, Spec: spec},
		// The reverse link carries only 40-byte ACKs; same provisioning
		// keeps it trivially uncongested.
		{From: "dst", To: "src", Rate: r, Buffer: buf, PropDelay: prop, Spec: spec},
	}
	if scheme.MustParse(spec).ManagerName() == "sharing" {
		h := units.Bytes(float64(buf) * unif(rng, 0.3, 0.5))
		links[0].Headroom = h
		links[1].Headroom = h
	}
	return &Scenario{
		Kind: KindTCP,
		Topo: &topology.Topology{
			Description: "generated: closed-loop tcp over a guaranteed bottleneck",
			Links:       links,
			Flows:       flows,
		},
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}

// genRegistry draws an arbitrary spec from the live registry, so every
// scheme — present and future — gets fuzzed under the scheme-agnostic
// oracles. Hybrid specs get a dense random queue map.
func genRegistry(rng *rand.Rand) *Scenario {
	sc := genSingleLink(rng, KindRegistry)
	t := sc.Topo
	t.Description = "generated: arbitrary registry scheme"
	all := scheme.Specs()
	spec := all[rng.Intn(len(all))]
	t.Links[0].Spec = spec
	s := scheme.MustParse(spec)
	t.Links[0].Headroom = 0
	if s.ManagerName() == "sharing" || s.ManagerName() == "adaptive" {
		t.Links[0].Headroom = units.Bytes(float64(t.Links[0].Buffer) * unif(rng, 0.2, 0.4))
	}
	if s.SchedulerName() == "hybrid" {
		k := s.Queues()
		if k <= 0 {
			k = 2
		}
		q := make([]int, len(t.Flows))
		for i := range q {
			q[i] = rng.Intn(k)
		}
		t.Links[0].Queues = densify(q)
	}
	return sc
}

// densify renumbers queue ids to 0..m-1 in order of first use, so every
// hybrid queue in range is populated (an empty queue has no reserved
// rate and is rejected at build time).
func densify(q []int) []int {
	next := 0
	seen := map[int]int{}
	out := make([]int, len(q))
	for i, v := range q {
		d, ok := seen[v]
		if !ok {
			d = next
			seen[v] = d
			next++
		}
		out[i] = d
	}
	return out
}

// genBroken engineers the Example 1 necessity construction against an
// under-allocated threshold link (spec fifo+threshold?scale=s):
//
//   - Aggressors (unshaped CBR far above the link rate) pin the queue at
//     the scaled thresholds from t≈0, entirely deterministically.
//   - A victim with a large bucket σ₁ joins late, its bucket full, and
//     bursts σ₁ into the pinned queue. Its first byte departs only
//     after the pinned backlog drains, so its occupancy must reach
//     σ₁ + ρ₁·(pinned/R) — above the scaled threshold s·(σ₁ + ρ₁B/R)
//     but below the paper's allocation, forcing conformant loss that
//     Proposition 2 says must never happen.
//
// The margins are chosen so the crossing exceeds the scaled threshold
// by many packets at any scale ≤ 0.95, and the whole scenario uses only
// deterministic sources, so the failure reproduces under any seed.
func genBroken(rng *rand.Rand, scale float64) *Scenario {
	r := units.MbitsPerSecond(unif(rng, 25, 50))
	u := unif(rng, 0.66, 0.70)
	f := unif(rng, 0.045, 0.055) // victim reserved share ρ₁/R
	g := unif(rng, 3.2, 3.6)     // σ₁ as a multiple of f·B
	m := unif(rng, 1.015, 1.03)  // admission margin: B ≈ eq. (9) minimum
	sigmaAgg := units.KiloBytes(unif(rng, 160, 240))

	// B solves B = m·(Σσ_agg + σ₁)/(1−u) with σ₁ = g·f·B.
	den := (1 - u) - m*g*f
	b := units.Bytes(m * float64(sigmaAgg) / den)
	rho1 := units.Rate(r.BitsPerSecond() * f)
	sigma1 := units.Bytes(g * f * float64(b))

	victim := topology.Flow{
		Name:       "victim",
		RouteNodes: []string{"src", "dst"},
		Spec: packet.FlowSpec{
			PeakRate:   units.Rate(r.BitsPerSecond() * 0.8),
			TokenRate:  rho1,
			BucketSize: sigma1,
		},
		Source: topology.SourceGreedy,
		Shaped: true,
	}
	nag := 1 + rng.Intn(2)
	flows := []topology.Flow{victim}
	rhoAgg := units.Rate(r.BitsPerSecond() * (u - f))
	for i := 0; i < nag; i++ {
		offered := units.Rate(r.BitsPerSecond() * unif(rng, 1.2, 2.0))
		flows = append(flows, topology.Flow{
			Name:       fmt.Sprintf("agg%d", i),
			RouteNodes: []string{"src", "dst"},
			Spec: packet.FlowSpec{
				PeakRate:   offered,
				TokenRate:  rhoAgg / units.Rate(nag),
				BucketSize: sigmaAgg / units.Bytes(nag),
			},
			Source:  topology.SourceCBR,
			AvgRate: offered,
			Shaped:  false,
		})
	}
	return &Scenario{
		Kind: KindBroken,
		Topo: &topology.Topology{
			Description: fmt.Sprintf("generated: threshold under-allocation (scale=%v) breaking Proposition 2", scale),
			Links: []topology.Link{{
				From: "src", To: "dst",
				Rate:   r,
				Buffer: b,
				Spec:   "fifo+threshold?scale=" + strconv.FormatFloat(scale, 'g', -1, 64),
			}},
			Flows: flows,
			Events: []topology.Event{{
				At:   unif(rng, 0.6, 0.8),
				Kind: topology.EventJoin,
				Flow: "victim",
			}},
		},
	}
}

// flowSpecs projects the declared profiles.
func flowSpecs(flows []topology.Flow) []packet.FlowSpec {
	specs := make([]packet.FlowSpec, len(flows))
	for i := range flows {
		specs[i] = flows[i].Spec
	}
	return specs
}
