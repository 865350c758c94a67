package validate

import (
	"context"

	"bufqos/internal/report"
	"bufqos/internal/topology"
)

// cloneTopology deep-copies the exported scenario description. Resolved
// state (flow routes, event indices, parsed schemes) is deliberately
// reset; the clone must be Validate()d before use, which re-derives it.
func cloneTopology(t *topology.Topology) *topology.Topology {
	c := &topology.Topology{Name: t.Name, Description: t.Description}
	c.Links = append([]topology.Link(nil), t.Links...)
	for i := range c.Links {
		c.Links[i].Queues = append([]int(nil), t.Links[i].Queues...)
	}
	c.Flows = append([]topology.Flow(nil), t.Flows...)
	for i := range c.Flows {
		c.Flows[i].RouteNodes = append([]string(nil), t.Flows[i].RouteNodes...)
		c.Flows[i].Route = nil
		c.Flows[i].ReverseRoute = nil
	}
	c.Events = append([]topology.Event(nil), t.Events...)
	return c
}

// evaluateScenario runs the scenario once and applies the given oracles
// to the outcome.
func evaluateScenario(ctx context.Context, sc *Scenario, opts topology.Options, oracles []Oracle) ([]report.Assertion, error) {
	res, err := topology.Run(ctx, sc.Topo, opts)
	if err != nil {
		return nil, err
	}
	c := &Case{Scenario: sc, Opts: opts, Result: &res}
	var as []report.Assertion
	for _, o := range oracles {
		as = append(as, o.Check(ctx, c)...)
	}
	return as, nil
}

// anyFailed reports whether any assertion carries a violation.
func anyFailed(as []report.Assertion) bool {
	for _, a := range as {
		if a.Failed() {
			return true
		}
	}
	return false
}

// shrinkBudget caps the number of candidate re-runs one shrink may
// spend; each re-run is a full scenario simulation.
const shrinkBudget = 120

// Shrink greedily minimizes a failing scenario while it keeps failing
// the given oracles: it tries dropping flows, dropping events, halving
// link buffers, and halving link rates, re-running after each mutation
// and keeping any candidate that still fails, until a fixpoint (or the
// run budget) is reached. Shrinking is deterministic — candidates are
// tried in a fixed order — so the same failure always shrinks to the
// same reproducer.
func Shrink(ctx context.Context, sc *Scenario, opts topology.Options, oracles []Oracle) *Scenario {
	cur := sc
	runs := 0
	for improved := true; improved && runs < shrinkBudget && ctx.Err() == nil; {
		improved = false
		for _, cand := range candidates(cur) {
			if runs >= shrinkBudget || ctx.Err() != nil {
				break
			}
			if cand.Topo.Validate() != nil {
				continue // mutation made the scenario invalid; skip it
			}
			runs++
			as, err := evaluateScenario(ctx, cand, opts, oracles)
			if err != nil || !anyFailed(as) {
				continue
			}
			cur = cand
			improved = true
			break // restart the candidate sweep from the smaller scenario
		}
	}
	return cur
}

// candidates enumerates the one-step simplifications of a scenario, in
// decreasing order of how much they remove.
func candidates(sc *Scenario) []*Scenario {
	var out []*Scenario
	t := sc.Topo
	if len(t.Flows) > 1 {
		for fi := range t.Flows {
			out = append(out, mutate(sc, func(c *topology.Topology) { dropFlow(c, fi) }))
		}
	}
	for ei := range t.Events {
		ei := ei
		out = append(out, mutate(sc, func(c *topology.Topology) {
			c.Events = append(c.Events[:ei], c.Events[ei+1:]...)
		}))
	}
	for li := range t.Links {
		li := li
		out = append(out, mutate(sc, func(c *topology.Topology) {
			c.Links[li].Buffer /= 2
			if c.Links[li].Headroom >= c.Links[li].Buffer {
				c.Links[li].Headroom = c.Links[li].Buffer / 2
			}
		}))
		out = append(out, mutate(sc, func(c *topology.Topology) {
			c.Links[li].Rate /= 2
		}))
	}
	return out
}

// mutate clones the scenario and applies one mutation to the clone.
func mutate(sc *Scenario, f func(*topology.Topology)) *Scenario {
	c := cloneTopology(sc.Topo)
	f(c)
	return &Scenario{Kind: sc.Kind, Seed: sc.Seed, Topo: c}
}

// dropFlow removes flow fi together with its timeline events and its
// entries in any hybrid queue maps (renumbered dense afterwards).
func dropFlow(c *topology.Topology, fi int) {
	name := c.Flows[fi].Name
	c.Flows = append(c.Flows[:fi], c.Flows[fi+1:]...)
	var evs []topology.Event
	for _, ev := range c.Events {
		if (ev.Kind == topology.EventJoin || ev.Kind == topology.EventLeave) && ev.Flow == name {
			continue
		}
		evs = append(evs, ev)
	}
	c.Events = evs
	for li := range c.Links {
		if q := c.Links[li].Queues; q != nil {
			c.Links[li].Queues = densify(append(q[:fi], q[fi+1:]...))
		}
	}
}
