package validate

import (
	"context"
	"fmt"
	"reflect"

	"bufqos/internal/core"
	"bufqos/internal/fluid"
	"bufqos/internal/packet"
	"bufqos/internal/report"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// Case is one executed fuzz case: the generated scenario, the options
// it ran under, and the finished run the oracles inspect. Oracles that
// need counterfactual runs (admission monotonicity) re-run the
// scenario themselves via topology.Run with the same options.
type Case struct {
	Index    int
	Scenario *Scenario
	Opts     topology.Options
	Result   *topology.Result
	// ReproDir, when non-empty, is where oracles that manage their own
	// reproducer format (competitive-ratio's abstract instances) write
	// files; the standard topology shrinker has its own pipeline.
	ReproDir string
}

// Oracle is one paper invariant turned into an executable check. Check
// returns one report.Assertion per property instance it examined; an
// assertion with a non-nil Err is a violation. An oracle that does not
// apply to a case returns no assertions.
type Oracle struct {
	// Name is the stable identifier used by `qfuzz -oracle`.
	Name string
	// Citation anchors the invariant in the paper.
	Citation string
	// Doc is a one-line statement of the property.
	Doc string
	// NoShrink excludes the oracle from the topology shrinker: its
	// failures concern inputs other than the scenario (abstract arrival
	// instances), and it writes its own reproducers into Case.ReproDir.
	NoShrink bool
	Check    func(ctx context.Context, c *Case) []report.Assertion
}

// Oracles returns the full oracle library in catalogue order.
func Oracles() []Oracle {
	return []Oracle{
		{
			Name:     "zero-conformant-loss",
			Citation: "Propositions 1–2, §2.1–2.2",
			Doc:      "an admitted shaped flow loses no conformant packet at any threshold- or sharing-managed hop",
			Check:    verified("zero-conformant-loss"),
		},
		{
			Name:     "conservation",
			Citation: "§2 queueing model",
			Doc:      "per link and flow, offered = departed + dropped + a residue within the buffer; delivered never exceeds offered",
			Check:    checkConservation,
		},
		{
			Name:     "reserved-throughput",
			Citation: "Proposition 2 corollary, §2.2",
			Doc:      "a sustained conformant flow on a guaranteed route delivers its reserved rate ρ up to a burst-and-storage allowance",
			Check:    verified("reserved-throughput"),
		},
		{
			Name:     "rejected-flow-idle",
			Citation: "admission regions, eqs. (5)–(8), §2.3",
			Doc:      "a flow refused by admission control carries no traffic",
			Check:    verified("rejected-flow-idle"),
		},
		{
			Name:     "admission-monotonicity",
			Citation: "Proposition 2, §2.2 (the guarantee is unconditional)",
			Doc:      "admitting one more flow never induces conformant loss for flows that stay admitted",
			Check:    checkMonotonicity,
		},
		{
			Name:     "threshold-necessity",
			Citation: "Proposition 1 tightness via Example 1, §2.1",
			Doc:      "in the fluid model the B·ρ/R threshold is lossless while 0.9× of it drops against a greedy competitor",
			Check:    checkNecessity,
		},
		{
			Name:     "hybrid-savings",
			Citation: "equation (17), §4.1",
			Doc:      "the hybrid allocation never needs more buffer than plain FIFO: B_FIFO − B_hybrid ≥ 0",
			Check:    checkHybridSavings,
		},
		{
			Name:     "tcp-goodput-floor",
			Citation: "GFR comparison (PAPERS.md: Goyal et al., rate guarantees to TCP); §3 thresholds under feedback",
			Doc:      "an admitted closed-loop TCP flow on a guaranteed route achieves goodput ≥ ρ/2 over its active window",
			Check:    verified("tcp-goodput-floor"),
		},
		{
			Name:     "shard-equivalence",
			Citation: "determinism contract, §5 scaling discussion",
			Doc:      "re-running the scenario on a 3-shard partitioned kernel reproduces the single-shard result bit for bit",
			Check:    checkShardEquivalence,
		},
		{
			Name:     "sim-fluid-differential",
			Citation: "§2 fluid analysis vs the packet simulator",
			Doc:      "on an all-greedy threshold link, packet-sim departures and drops stay within a quantization envelope of the fluid trajectory",
			Check:    checkDifferential,
		},
		{
			Name:     "competitive-ratio",
			Citation: "Al-Bawani & Souza (arXiv:1103.6049); Bienkowski (arXiv:1007.1535)",
			Doc:      "every bounded online policy earns ALG ≥ OPT/bound on per-case adversarial instances; violations shrink to instances replayable with qcomp -replay",
			NoShrink: true,
			Check:    checkCompetitiveRatio,
		},
		{
			Name:     "sizing-sqrt-n",
			Citation: "Spang–Arslan–McKeown, \"Updating the Theory of Buffer Sizing\" (PAPERS.md)",
			Doc:      "a drop-tail bottleneck buffered at C·RTT/√n stays ≥90% utilized under n ≥ 64 case-seeded TCP flows",
			NoShrink: true,
			Check:    checkSizingSqrtN,
		},
	}
}

// OracleNames returns the names in catalogue order.
func OracleNames() []string {
	var names []string
	for _, o := range Oracles() {
		names = append(names, o.Name)
	}
	return names
}

// verified is the oracle for one of topology.Verify's per-run
// guarantees: Verify's assertions of that name. qnet -check, bench's
// network check and qfuzz thereby hold a run to one statement of each
// guarantee, scoped to the hops and routes the paper promises.
func verified(name string) func(context.Context, *Case) []report.Assertion {
	return func(_ context.Context, c *Case) []report.Assertion {
		var as []report.Assertion
		for _, a := range topology.Verify(c.Scenario.Topo, c.Result) {
			if a.Name == name {
				as = append(as, a)
			}
		}
		return as
	}
}

// assertable reports whether the flow is held to its guarantees in this
// run: it must be admitted, shaped (no contract otherwise), and not
// degraded by a link failure or rate cut.
func assertable(f *topology.Flow, fr *topology.FlowResult) bool {
	return fr.Admitted && !fr.Degraded && f.Shaped
}

func checkConservation(_ context.Context, c *Case) []report.Assertion {
	t := c.Scenario.Topo
	var as []report.Assertion
	for li := range t.Links {
		l := &t.Links[li]
		for fi := range t.Flows {
			lf := &c.Result.Links[li].Flows[fi]
			if lf.Offered.Packets == 0 {
				continue
			}
			residue := lf.Offered.Bytes - lf.Dropped.Bytes - lf.Departed.Bytes
			var err error
			switch {
			case residue < 0:
				err = fmt.Errorf("more bytes left than arrived: offered %v, dropped %v, departed %v",
					lf.Offered.Bytes, lf.Dropped.Bytes, lf.Departed.Bytes)
			case residue > l.Buffer+t.Flows[fi].PacketSize:
				err = fmt.Errorf("residue %v exceeds buffer %v", residue, l.Buffer)
			}
			as = append(as, report.Assertion{
				Name:   "conservation",
				Detail: fmt.Sprintf("flow %s at link %s", t.Flows[fi].Name, l.Name),
				Err:    err,
			})
		}
	}
	for fi := range t.Flows {
		fr := &c.Result.Flows[fi]
		if fr.Offered.Packets == 0 {
			continue
		}
		as = append(as, report.Assertion{
			Name:   "conservation",
			Detail: fmt.Sprintf("flow %s end-to-end", t.Flows[fi].Name),
			Err: report.Checkf(fr.Delivered.Bytes <= fr.Offered.Bytes,
				"delivered %v exceeds offered %v", fr.Delivered.Bytes, fr.Offered.Bytes),
		})
	}
	return as
}

// checkShardEquivalence re-runs the scenario with the link graph
// partitioned over three event kernels (internal/shard) and asserts the
// Result is bit-identical to the fuzz case's original run. Three is the
// awkwardest small count: with most generated route graphs it forces at
// least one uneven cut, exercising both the window protocol and the
// hand-off tie-breaking.
func checkShardEquivalence(ctx context.Context, c *Case) []report.Assertion {
	opts := c.Opts
	opts.Shards = 3
	vres, err := topology.Run(ctx, c.Scenario.Topo, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return []report.Assertion{{
			Name:   "shard-equivalence",
			Detail: "running the 3-shard variant",
			Err:    err,
		}}
	}
	var err2 error
	if !reflect.DeepEqual(*c.Result, vres) {
		err2 = fmt.Errorf("3-shard run diverges from the original (events %d vs %d)",
			vres.Events, c.Result.Events)
	}
	return []report.Assertion{{
		Name:   "shard-equivalence",
		Detail: fmt.Sprintf("scenario %s", c.Scenario.Topo.Name),
		Err:    err2,
	}}
}

// checkMonotonicity re-runs the scenario with one extra conformant flow
// appended and asserts that every flow admitted in both runs still sees
// zero conformant loss at its guaranteed hops. Appending (rather than
// inserting) preserves the original flows' IDs and hence their derived
// random streams, so their sources behave bit-identically; only the
// queueing interleaving may change — which is exactly what the
// guarantee says must not matter.
func checkMonotonicity(ctx context.Context, c *Case) []report.Assertion {
	t := c.Scenario.Topo
	applicable := false
	for fi := range t.Flows {
		if assertable(&t.Flows[fi], &c.Result.Flows[fi]) && t.GuaranteedRoute(&t.Flows[fi]) {
			applicable = true
			break
		}
	}
	if !applicable {
		return nil
	}
	clone := cloneTopology(t)
	clone.Flows = append(clone.Flows, topology.Flow{
		Name:       "zz-intruder",
		RouteNodes: append([]string(nil), t.Flows[0].RouteNodes...),
		Spec: packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(1),
			TokenRate:  units.MbitsPerSecond(0.25),
			BucketSize: units.KiloBytes(10),
		},
		Source: topology.SourceGreedy,
		Shaped: true,
	})
	for li := range clone.Links {
		if clone.Links[li].Queues != nil {
			clone.Links[li].Queues = append(clone.Links[li].Queues, 0)
		}
	}
	if err := clone.Validate(); err != nil {
		return []report.Assertion{{
			Name:   "admission-monotonicity",
			Detail: "building the +1-flow variant",
			Err:    err,
		}}
	}
	vres, err := topology.Run(ctx, clone, c.Opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return []report.Assertion{{
			Name:   "admission-monotonicity",
			Detail: "running the +1-flow variant",
			Err:    err,
		}}
	}
	var as []report.Assertion
	for fi := range t.Flows {
		f := &t.Flows[fi]
		if !assertable(f, &c.Result.Flows[fi]) || !vres.Flows[fi].Admitted || vres.Flows[fi].Degraded {
			continue
		}
		var lost int64
		for _, li := range f.Route {
			if t.Links[li].Guaranteed() {
				lost += vres.Links[li].Flows[fi].ConformantDropped.Packets
			}
		}
		as = append(as, report.Assertion{
			Name:   "admission-monotonicity",
			Detail: fmt.Sprintf("flow %s with one extra admitted flow", f.Name),
			Err: report.Checkf(lost == 0,
				"gained %d conformant drops after adding an unrelated flow", lost),
		})
	}
	return as
}

// checkNecessity replays Proposition 1 and its Example 1 tightness in
// the fluid model, parameterized by the case's first link and first
// shaped flow: at the paper threshold B·ρ/R (plus one step of
// discretization slack) a constant-rate-ρ flow suffers zero loss
// against a greedy competitor pinned at the rest of the buffer; at 0.9×
// the threshold it must lose fluid.
func checkNecessity(_ context.Context, c *Case) []report.Assertion {
	t := c.Scenario.Topo
	l := &t.Links[0]
	r := l.Rate.BitsPerSecond()
	b := l.Buffer.Bits()
	rho := 0.1 * r
	for fi := range t.Flows {
		if t.Flows[fi].Shaped && t.Flows[fi].Spec.TokenRate.BitsPerSecond() < 0.5*r {
			rho = t.Flows[fi].Spec.TokenRate.BitsPerSecond()
			break
		}
	}
	drain := b / r
	dt := drain / 2500
	steps := 25 * 2500
	rates := func(float64) []float64 { return []float64{rho, 0} }

	th := b * rho / r
	suff := fluid.NewEngine(r, []float64{th + rho*dt, b - th - rho*dt}, dt)
	suff.SetGreedy(1)
	suff.Run(steps, rates)

	scaled := 0.9 * th
	nec := fluid.NewEngine(r, []float64{scaled, b - scaled}, dt)
	nec.SetGreedy(1)
	nec.Run(steps, rates)

	return []report.Assertion{
		{
			Name:   "threshold-necessity",
			Detail: fmt.Sprintf("sufficiency: threshold B·ρ/R (ρ=%v, R=%v, B=%v) lossless", units.Rate(rho), l.Rate, l.Buffer),
			Err: report.Checkf(suff.Dropped[0] == 0,
				"fluid flow dropped %.0f bits at the paper threshold", suff.Dropped[0]),
		},
		{
			Name:   "threshold-necessity",
			Detail: "necessity: 0.9× the threshold drops against a greedy competitor",
			Err: report.Checkf(nec.Dropped[0] > 0,
				"no loss at 0.9× threshold: the bound would not be tight"),
		},
	}
}

// checkHybridSavings evaluates eq. (17) on the case's admitted shaped
// population: grouping the flows into two hybrid queues never needs
// more buffer than the single FIFO partition.
func checkHybridSavings(_ context.Context, c *Case) []report.Assertion {
	t := c.Scenario.Topo
	var as []report.Assertion
	for li := range t.Links {
		l := &t.Links[li]
		// Eq. (17) compares allocations at ONE multiplexing point, so
		// pool only the admitted shaped flows that cross this link, and
		// only when their reservations fit its rate (the equation's
		// stability precondition Σρ < R).
		var specs []packet.FlowSpec
		var sumRho units.Rate
		for fi := range t.Flows {
			if !c.Result.Flows[fi].Admitted || !t.Flows[fi].Shaped {
				continue
			}
			if indexOf(t.Flows[fi].Route, li) < 0 {
				continue
			}
			specs = append(specs, t.Flows[fi].Spec)
			sumRho += t.Flows[fi].Spec.TokenRate
		}
		if len(specs) < 2 || sumRho >= l.Rate {
			continue
		}
		queueOf := make([]int, len(specs))
		for i := range queueOf {
			queueOf[i] = i % 2
		}
		groups, err := core.GroupFlows(specs, queueOf, 2)
		if err == nil {
			var fifoB units.Bytes
			fifoB, err = core.RequiredBufferFIFO(specs, l.Rate)
			if err == nil {
				var sav units.Bytes
				sav, err = core.BufferSavings(l.Rate, groups)
				if err == nil {
					err = report.Checkf(sav >= 0, "negative savings %v: hybrid needs more than FIFO's %v", sav, fifoB)
				}
			}
		}
		as = append(as, report.Assertion{
			Name:   "hybrid-savings",
			Detail: fmt.Sprintf("B_FIFO − B_hybrid ≥ 0 over %d admitted flows on %s", len(specs), l.Name),
			Err:    err,
		})
	}
	return as
}

// checkDifferential replays a differential-family case through the
// fluid engine. Every flow is greedy and shaped, so its arrival process
// is exactly its envelope: peak rate until the bucket empties at
// t* = σ/(peak − ρ), then ρ. The packet run's per-flow departures must
// stay within a quantization envelope of the fluid trajectory, and
// neither model may drop (Proposition 2 holds in both).
func checkDifferential(_ context.Context, c *Case) []report.Assertion {
	if c.Scenario.Kind != KindDifferential {
		return nil
	}
	t := c.Scenario.Topo
	l := &t.Links[0]
	ths, err := core.Thresholds(t.Specs(), l.Rate, l.Buffer)
	if err != nil {
		return []report.Assertion{{Name: "sim-fluid-differential", Detail: "thresholds", Err: err}}
	}
	r := l.Rate.BitsPerSecond()
	thBits := make([]float64, len(ths))
	for i, th := range ths {
		thBits[i] = th.Bits()
	}
	// dt small enough that one step moves far less than a threshold.
	dt := (l.Buffer.Bits() / r) / 500
	steps := int(c.Opts.Duration/dt) + 1

	peak := make([]float64, len(t.Flows))
	rho := make([]float64, len(t.Flows))
	tstar := make([]float64, len(t.Flows))
	for fi := range t.Flows {
		s := t.Flows[fi].Spec
		peak[fi] = s.PeakRate.BitsPerSecond()
		rho[fi] = s.TokenRate.BitsPerSecond()
		tstar[fi] = s.BucketSize.Bits() / (peak[fi] - rho[fi])
	}
	eng := fluid.NewEngine(r, thBits, dt)
	buf := make([]float64, len(t.Flows))
	eng.Run(steps, func(now float64) []float64 {
		for fi := range buf {
			if now < tstar[fi] {
				buf[fi] = peak[fi]
			} else {
				buf[fi] = rho[fi]
			}
		}
		return buf
	})

	var as []report.Assertion
	for fi := range t.Flows {
		f := &t.Flows[fi]
		lf := &c.Result.Links[0].Flows[fi]
		fluidDep := units.Bytes(eng.Departed[fi] / 8)
		// Quantization envelope: the packet world trails by up to one
		// bucket of burst granularity plus a handful of packets of
		// scheduling slack; the fluid world ran one extra partial step.
		tol := f.Spec.BucketSize/2 + 16*f.PacketSize + units.BytesAtRate(f.Spec.TokenRate, 2*dt)
		diff := lf.Departed.Bytes - fluidDep
		if diff < 0 {
			diff = -diff
		}
		as = append(as,
			report.Assertion{
				Name: "sim-fluid-differential",
				Detail: fmt.Sprintf("flow %s departures: packet %v vs fluid %v (tol %v)",
					f.Name, lf.Departed.Bytes, fluidDep, tol),
				Err: report.Checkf(diff <= tol, "packet and fluid departures diverge by %v > %v", diff, tol),
			},
			report.Assertion{
				Name:   "sim-fluid-differential",
				Detail: fmt.Sprintf("flow %s losslessness in both models", f.Name),
				Err: report.Checkf(lf.ConformantDropped.Packets == 0 && eng.Dropped[fi] == 0,
					"packet dropped %d conformant packets, fluid dropped %.0f bits",
					lf.ConformantDropped.Packets, eng.Dropped[fi]),
			},
		)
	}
	return as
}
