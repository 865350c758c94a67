// Package topology is the declarative scenario engine: a JSON file
// names nodes, directed links (each an independent multiplexing point
// with its own rate, buffer, and scheme-registry spec), flows with
// explicit multi-hop routes and (σ, ρ) envelopes, and a timeline of
// events (flow churn, link rate changes, failures). The engine gates
// every flow join at every traversed link through the paper's
// admission regions (Prop. 2 / eqs. 5–8), builds every link with
// scheme.NewLink, drives the whole scenario on the deterministic event
// kernel, and verifies afterwards that the per-hop guarantees composed:
// admitted conformant flows see zero conformant loss at every hop and
// deliver their reserved rate.
//
// The paper analyses one output port; this package is the "backbone
// deployment" reading of its claim — if each port of a network runs the
// threshold scheme and admission control, the per-node guarantees hold
// end-to-end along any route.
package topology

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

// Link is one directed edge: an output port of node From towards node
// To, with its own scheduler/buffer-manager pair built from a
// scheme-registry spec.
type Link struct {
	// Name identifies the link in results and events; it defaults to
	// "from->to".
	Name string `json:"name,omitempty"`
	// From and To are node names. Nodes exist implicitly as endpoints.
	From string `json:"from"`
	To   string `json:"to"`
	// Rate is the link capacity R.
	Rate units.Rate `json:"rate,omitempty"`
	// Buffer is the output buffer B.
	Buffer units.Bytes `json:"buffer,omitempty"`
	// Headroom is the sharing headroom H (used by sharing managers).
	Headroom units.Bytes `json:"headroom,omitempty"`
	// PropDelay is the propagation delay towards To, in seconds.
	PropDelay float64 `json:"prop_delay,omitempty"`
	// Spec is the scheme-registry spec, e.g. "wfq+sharing"; Validate
	// fills an empty one with defaultSpec.
	Spec string `json:"scheme,omitempty"`
	// Queues optionally maps flow IDs to hybrid queues (required by
	// hybrid specs, ignored otherwise).
	Queues []int `json:"queues,omitempty"`

	scheme *scheme.Scheme
}

// defaultSpec is the scheme of a link that declares none: the paper's
// FIFO with per-flow thresholds.
const defaultSpec = "fifo+threshold"

// SourceKind selects how a flow generates traffic.
type SourceKind string

const (
	// SourceOnOff is the paper's Markov-modulated on-off source with
	// exponential on/off periods (peak rate, average rate, mean burst).
	SourceOnOff SourceKind = "onoff"
	// SourceGreedy saturates the flow's shaper, so the flow's output
	// tracks its (σ, ρ) envelope exactly — the right source for
	// verifying that reserved rates are delivered.
	SourceGreedy SourceKind = "greedy"
	// SourceCBR emits at the flow's average rate with constant spacing.
	SourceCBR SourceKind = "cbr"
	// SourceTCP is a closed-loop TCP Reno/NewReno sender: delivery
	// generates acknowledgements that travel the flow's reverse route
	// back to the source, which clocks its congestion window off them.
	// The topology must contain a reverse link for every hop of the
	// flow's route.
	SourceTCP SourceKind = "tcp"
)

// Flow is one end-to-end session: a declared (σ, ρ, peak) profile, an
// explicit route through the link graph, and a traffic source.
type Flow struct {
	// Name identifies the flow in results and events.
	Name string `json:"name,omitempty"`
	// ID is the dense flow index (position in Topology.Flows); packet
	// Flow fields and buffer-manager thresholds use it.
	ID int `json:"-"`
	// Spec is the declared traffic contract.
	Spec packet.FlowSpec `json:"spec"`
	// RouteNodes is the node path, e.g. ["s0", "a", "b", "sink"].
	RouteNodes []string `json:"route"`
	// Route is the resolved path as indices into Topology.Links.
	Route []int `json:"-"`
	// ReverseRoute, filled by Validate for tcp flows only, holds the
	// reverse-direction link of each forward hop: ReverseRoute[h] is the
	// link To→From opposite Route[h]. Acknowledgements and drop
	// notifications accumulate its propagation delays on their way back
	// to the source.
	ReverseRoute []int `json:"-"`
	// Source selects the generator kind.
	Source SourceKind `json:"source,omitempty"`
	// AvgRate and MeanBurst parameterize the on-off source (the cbr
	// source also sends at AvgRate). Both default from the spec:
	// AvgRate = ρ, MeanBurst = σ.
	AvgRate   units.Rate  `json:"avg,omitempty"`
	MeanBurst units.Bytes `json:"burst,omitempty"`
	// PacketSize is the flow's packet size (default 500 bytes, the
	// paper's maximum packet size).
	PacketSize units.Bytes `json:"packet,omitempty"`
	// Shaped routes the source through a leaky-bucket shaper with the
	// flow's profile, making its traffic conformant (Table 1 flows 0–5).
	Shaped bool `json:"shaped,omitempty"`
	// Class is the flow's service class for the class-aware online
	// schemes (cgreedy, classseg, lqf, semigreedy); higher = more
	// valuable. Packets carry it, and links running those schemes use
	// it for admission and service decisions. When every flow leaves it
	// 0, class-aware links derive classes from the declared profiles
	// instead.
	Class int `json:"class,omitempty"`
}

// EventKind enumerates the scenario timeline verbs.
type EventKind string

const (
	// EventJoin admits a flow (subject to admission control at every
	// traversed link) and starts its source.
	EventJoin EventKind = "join"
	// EventLeave stops a flow's source and releases its reservations.
	EventLeave EventKind = "leave"
	// EventRate changes a link's capacity for future transmissions.
	EventRate EventKind = "rate"
	// EventFail halts a link's service; arrivals still buffer and drop.
	EventFail EventKind = "fail"
	// EventRecover resumes a failed link.
	EventRecover EventKind = "recover"
)

// Event is one timeline entry. Flow events name a flow; link events
// name a link.
type Event struct {
	// At is the event time in simulated seconds.
	At   float64    `json:"at"`
	Kind EventKind  `json:"type"`
	Flow string     `json:"flow,omitempty"`
	Link string     `json:"link,omitempty"`
	Rate units.Rate `json:"rate,omitempty"` // for EventRate

	flow, link int // resolved indices
}

// Topology is a validated scenario: links, flows, and a timeline.
type Topology struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Description is free text carried from the JSON file.
	Description string `json:"description,omitempty"`
	Links       []Link `json:"links"`
	Flows       []Flow `json:"flows"`
	// Events is the timeline, sorted by time (ties keep file order, so
	// a leave releasing capacity can precede a join reusing it).
	Events []Event `json:"events,omitempty"`

	// joinAt is each flow's join-event time, or noJoin, filled by a
	// successful Validate so JoinTime is O(1) for Validate itself, the
	// admission planner and the engine. Nil on a topology never
	// validated, or whose last Validate failed.
	joinAt []float64
	// ft is the route index of the resolved routes, built once by
	// Validate for its trial builds and reused by every Run. Nil when
	// joinAt is.
	ft *FlowTable
}

// badRate reports a rate no link or source can run at: not positive
// (NaN included) or infinite, both of which the wire form can spell
// ("NaNMbit/s", "InfMbit/s").
func badRate(r units.Rate) bool { return !(r > 0) || math.IsInf(float64(r), 1) }

// noJoin marks a flow without a join event in Topology.joinAt (event
// times are validated non-negative).
const noJoin = -1

// Specs returns the declared profiles of all flows, in ID order — the
// global flow population. A link's scheme is built for the flows
// traversing it, or for this whole population when the scheme is
// population-sensitive or no flow traverses the link (linkConfig).
func (t *Topology) Specs() []packet.FlowSpec {
	specs := make([]packet.FlowSpec, len(t.Flows))
	for i, f := range t.Flows {
		specs[i] = f.Spec
	}
	return specs
}

// JoinTime returns when flow id joins: its join event's time, or 0 when
// the timeline has none (flows join at the start by default). The
// second result is false when the flow never joins (a leave without a
// join is rejected by Validate, so this means "no events at all"). On a
// validated topology it reads the table Validate built; otherwise it
// scans the timeline.
func (t *Topology) JoinTime(id int) (float64, bool) {
	if len(t.joinAt) == len(t.Flows) {
		if at := t.joinAt[id]; at != noJoin {
			return at, true
		}
		return 0, false
	}
	for _, ev := range t.Events {
		if ev.Kind == EventJoin && ev.flow == id {
			return ev.At, true
		}
	}
	return 0, false
}

// Classes returns the explicit flow→class map, in ID order, or nil
// when no flow declares a class — the nil lets class-aware schemes fall
// back to their profile-derived classification.
func (t *Topology) Classes() []int {
	any := false
	classes := make([]int, len(t.Flows))
	for i, f := range t.Flows {
		classes[i] = f.Class
		if f.Class != 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return classes
}

// linkConfig assembles the scheme.Config link li runs with, and the
// map from its data-plane flow index to the global flow id. Prop. 2's
// threshold σᵢ + ρᵢB/R depends only on flow i's own envelope and its
// link, and so do the other per-flow weights, budgets and classes of a
// population-insensitive scheme: it is built over just the flows
// traversing the link, in ascending id order. A population-sensitive
// scheme, and a link no flow traverses (builders reject an empty
// population), get the global population (specs and classes, as
// t.Specs() and t.Classes() return them) and a nil map. seed
// differentiates randomized managers (RED) per link. Validate's trial
// build and the engine both configure links here, so a scenario
// validates exactly when its links build.
func (t *Topology) linkConfig(li int, specs []packet.FlowSpec, classes []int, seed int64) (scheme.Config, []int32) {
	l := &t.Links[li]
	cfg := scheme.Config{LinkRate: l.Rate, Buffer: l.Buffer, Headroom: l.Headroom, Seed: seed}
	locals := t.ft.LinkFlows[li]
	if l.scheme.PopulationSensitive() || len(locals) == 0 {
		cfg.Specs, cfg.Classes, cfg.QueueOf = specs, classes, l.Queues
		return cfg, nil
	}
	cfg.Specs, cfg.Classes = gather(specs, locals), gather(classes, locals)
	return cfg, locals
}

// gather returns all's elements at idx, in order, or nil when all is nil.
func gather[T any](all []T, idx []int32) []T {
	if all == nil {
		return nil
	}
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = all[i]
	}
	return out
}

// Validate checks the whole scenario: link physics, scheme specs (each
// is trial-built with the configuration the engine runs it with, see
// linkConfig), flow contracts, route resolution, and timeline
// consistency. It fills the resolved Route and event indices, builds
// the route index every Run reuses, sorts Events by time (stable), and
// applies defaults (link names, source parameters). A Topology must be
// validated before Run.
func (t *Topology) Validate() (err error) {
	// The join-time table and the route index are rebuilt below and
	// kept only if the whole scenario checks out.
	t.joinAt, t.ft = nil, nil
	defer func() {
		if err != nil {
			t.joinAt, t.ft = nil, nil
		}
	}()
	if len(t.Links) == 0 {
		return fmt.Errorf("topology %s: no links", t.Name)
	}
	if len(t.Flows) == 0 {
		return fmt.Errorf("topology %s: no flows", t.Name)
	}
	byEdge := map[string]int{}
	for i := range t.Links {
		l := &t.Links[i]
		if l.From == "" || l.To == "" {
			return fmt.Errorf("link %d: missing from/to node", i)
		}
		if l.From == l.To {
			return fmt.Errorf("link %d: self-loop at node %s", i, l.From)
		}
		if l.Name == "" {
			l.Name = l.From + "->" + l.To
		}
		if badRate(l.Rate) {
			return fmt.Errorf("link %s: non-positive rate %v", l.Name, l.Rate)
		}
		if l.Buffer <= 0 {
			return fmt.Errorf("link %s: non-positive buffer %v", l.Name, l.Buffer)
		}
		if l.Headroom < 0 || l.Headroom >= l.Buffer {
			return fmt.Errorf("link %s: headroom %v outside [0, buffer %v)", l.Name, l.Headroom, l.Buffer)
		}
		if l.PropDelay < 0 {
			return fmt.Errorf("link %s: negative propagation delay %v", l.Name, l.PropDelay)
		}
		if l.Spec == "" {
			l.Spec = defaultSpec
		}
		sc, err := scheme.Parse(l.Spec)
		if err != nil {
			return fmt.Errorf("link %s: %w", l.Name, err)
		}
		l.scheme = sc
		edge := l.From + "->" + l.To
		if j, dup := byEdge[edge]; dup {
			return fmt.Errorf("links %s and %s duplicate edge %s", t.Links[j].Name, l.Name, edge)
		}
		byEdge[edge] = i
	}
	// Names resolve through maps built in the same pass as the
	// duplicate checks, so a scenario validates in O(flows + events).
	// A name is a duplicate at the first index whose name an earlier
	// entry already holds — for flows, with every earlier default
	// ("flowN") applied and every later one not yet, as a scan would
	// see it.
	linkByName := make(map[string]int, len(t.Links))
	for i := range t.Links {
		name := t.Links[i].Name
		if _, dup := linkByName[name]; dup {
			return fmt.Errorf("duplicate link name %s", name)
		}
		linkByName[name] = i
	}

	flowByName := make(map[string]int, len(t.Flows))
	for i := range t.Flows {
		f := &t.Flows[i]
		f.ID = i
		if f.Name == "" {
			f.Name = "flow" + strconv.Itoa(i)
		}
		if _, dup := flowByName[f.Name]; dup {
			return fmt.Errorf("duplicate flow name %s", f.Name)
		}
		flowByName[f.Name] = i
		if err := f.Spec.Validate(); err != nil {
			return fmt.Errorf("flow %s: %w", f.Name, err)
		}
		if badRate(f.Spec.TokenRate) || f.Spec.PeakRate != 0 && badRate(f.Spec.PeakRate) {
			return fmt.Errorf("flow %s: rates %v, %v not finite", f.Name, f.Spec.PeakRate, f.Spec.TokenRate)
		}
		if f.PacketSize == 0 {
			f.PacketSize = scheme.DefaultPacketSize
		}
		if f.PacketSize <= 0 {
			return fmt.Errorf("flow %s: non-positive packet size %v", f.Name, f.PacketSize)
		}
		if f.AvgRate == 0 {
			f.AvgRate = f.Spec.TokenRate
		}
		if badRate(f.AvgRate) {
			return fmt.Errorf("flow %s: non-positive average rate %v", f.Name, f.AvgRate)
		}
		if f.MeanBurst == 0 {
			f.MeanBurst = f.Spec.BucketSize
		}
		switch f.Source {
		case "":
			f.Source = SourceOnOff
		case SourceOnOff, SourceGreedy, SourceCBR, SourceTCP:
		default:
			return fmt.Errorf("flow %s: unknown source kind %q (want onoff, greedy, cbr, or tcp)", f.Name, f.Source)
		}
		if f.Class < 0 {
			return fmt.Errorf("flow %s: negative class %d", f.Name, f.Class)
		}
		if f.Source == SourceGreedy && !f.Shaped {
			return fmt.Errorf("flow %s: a greedy source must be shaped (it saturates its leaky bucket)", f.Name)
		}
		if f.Source == SourceTCP && f.Shaped {
			return fmt.Errorf("flow %s: a tcp source cannot be shaped (its window, not a leaky bucket, paces it)", f.Name)
		}
		if f.Source == SourceOnOff {
			// NewOnOff panics on bad parameters; surface them as load
			// errors instead.
			switch {
			case f.Spec.PeakRate <= 0:
				return fmt.Errorf("flow %s: on-off source needs a positive peak rate", f.Name)
			case f.AvgRate > f.Spec.PeakRate:
				return fmt.Errorf("flow %s: average rate %v outside (0, peak %v]", f.Name, f.AvgRate, f.Spec.PeakRate)
			case f.MeanBurst < f.PacketSize:
				return fmt.Errorf("flow %s: mean burst %v below packet size %v", f.Name, f.MeanBurst, f.PacketSize)
			}
		}
		if f.Shaped && f.Spec.BucketSize < f.PacketSize {
			return fmt.Errorf("flow %s: bucket %v below packet size %v, shaper would wedge", f.Name, f.Spec.BucketSize, f.PacketSize)
		}
		if len(f.RouteNodes) < 2 {
			return fmt.Errorf("flow %s: route needs at least two nodes, got %v", f.Name, f.RouteNodes)
		}
		f.Route = f.Route[:0]
		for h := 0; h+1 < len(f.RouteNodes); h++ {
			edge := f.RouteNodes[h] + "->" + f.RouteNodes[h+1]
			li, ok := byEdge[edge]
			if !ok {
				return fmt.Errorf("flow %s: no link %s on its route (nodes %s)",
					f.Name, edge, strings.Join(f.RouteNodes, " "))
			}
			// A link sizes one threshold per flow, for one crossing,
			// so a route crosses each link at most once.
			if slices.Contains(f.Route, li) {
				return fmt.Errorf("flow %s: link %s repeated in route (nodes %s)",
					f.Name, edge, strings.Join(f.RouteNodes, " "))
			}
			f.Route = append(f.Route, li)
		}
		if f.Source == SourceTCP {
			// A closed-loop flow needs a reverse link opposite every
			// forward hop to carry its acknowledgements home.
			f.ReverseRoute = f.ReverseRoute[:0]
			for h := 0; h+1 < len(f.RouteNodes); h++ {
				edge := f.RouteNodes[h+1] + "->" + f.RouteNodes[h]
				li, ok := byEdge[edge]
				if !ok {
					return fmt.Errorf("flow %s: tcp source needs reverse link %s for its acknowledgements (nodes %s)",
						f.Name, edge, strings.Join(f.RouteNodes, " "))
				}
				f.ReverseRoute = append(f.ReverseRoute, li)
			}
		}
	}

	// Trial-build every link's scheme with the configuration it runs
	// with so spec/population mismatches (hybrid queue maps, bad
	// thresholds, classes out of range) fail at load time, not mid-run.
	t.ft = NewFlowTable(t)
	specs := t.Specs()
	classes := t.Classes()
	for i := range t.Links {
		l := &t.Links[i]
		if l.Queues != nil && len(l.Queues) != len(t.Flows) {
			return fmt.Errorf("link %s: queue map covers %d flows, topology has %d", l.Name, len(l.Queues), len(t.Flows))
		}
		cfg, _ := t.linkConfig(i, specs, classes, 0)
		cfg.Now = func() float64 { return 0 } // placeholder clock; the trial build is discarded
		if _, _, err := l.scheme.Build(cfg); err != nil {
			return fmt.Errorf("link %s: %w", l.Name, err)
		}
	}

	for i := range t.Events {
		ev := &t.Events[i]
		if ev.At < 0 {
			return fmt.Errorf("event %d: negative time %v", i, ev.At)
		}
		switch ev.Kind {
		case EventJoin, EventLeave:
			fi, ok := flowByName[ev.Flow]
			if !ok {
				return fmt.Errorf("event %d: unknown flow %q", i, ev.Flow)
			}
			ev.flow = fi
		case EventRate, EventFail, EventRecover:
			li, ok := linkByName[ev.Link]
			if !ok {
				return fmt.Errorf("event %d: unknown link %q", i, ev.Link)
			}
			ev.link = li
			if ev.Kind == EventRate && badRate(ev.Rate) {
				return fmt.Errorf("event %d: non-positive rate %v for link %s", i, ev.Rate, ev.Link)
			}
		default:
			return fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].At < t.Events[j].At })
	// The join-time table: each flow's first join event in timeline
	// order (a second one is rejected below). It is published only once
	// the whole timeline checks out.
	joinAt := make([]float64, len(t.Flows))
	for i := range joinAt {
		joinAt[i] = noJoin
	}
	for i := len(t.Events) - 1; i >= 0; i-- {
		if ev := &t.Events[i]; ev.Kind == EventJoin {
			joinAt[ev.flow] = ev.At
		}
	}
	// A flow with no join event joins implicitly at t=0.
	joined := make([]bool, len(t.Flows))
	for i := range joined {
		joined[i] = joinAt[i] == noJoin
	}
	hasJoin := make([]bool, len(t.Flows))
	left := make([]bool, len(t.Flows))
	for i, ev := range t.Events {
		switch ev.Kind {
		case EventJoin:
			if hasJoin[ev.flow] {
				return fmt.Errorf("event %d: flow %s joins twice", i, ev.Flow)
			}
			hasJoin[ev.flow] = true
			joined[ev.flow] = true
		case EventLeave:
			if !joined[ev.flow] {
				return fmt.Errorf("event %d: flow %s leaves at t=%v before its join", i, ev.Flow, ev.At)
			}
			if left[ev.flow] {
				return fmt.Errorf("event %d: flow %s leaves twice", i, ev.Flow)
			}
			left[ev.flow] = true
		}
	}
	t.joinAt = joinAt
	return nil
}
