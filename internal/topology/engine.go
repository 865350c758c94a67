package topology

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bufqos/internal/core"
	"bufqos/internal/metrics"
	"bufqos/internal/network"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/shard"
	"bufqos/internal/sim"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// admissionPlan is the precomputed outcome of every admission decision
// of a scenario. Admission depends only on the ordered join/leave
// sequence and the declared FlowSpecs — never on simulated traffic — so
// it can be replayed sequentially before the run starts. That makes the
// outcomes (and the Rejections order) independent of how the links are
// partitioned across shards.
type admissionPlan struct {
	admitted []bool
	joinAt   []float64
	leaveAt  []float64
	left     []bool
	// rejections are in decision order: implicit joins in flow order at
	// t=0, then timeline events in their sorted order — exactly the
	// order a single event kernel dispatches them in.
	rejections []Rejection
}

// planAdmission replays the scenario's join/leave sequence up to the
// horizon (an event at exactly duration fires) through the paper's
// admission regions; a flow joining later is neither admitted nor
// rejected. It books the sums alone: it knows which flows it admitted,
// so a leave unbooks exactly what a join booked.
func planAdmission(t *Topology, duration float64) (*admissionPlan, error) {
	p := &admissionPlan{
		admitted: make([]bool, len(t.Flows)),
		joinAt:   make([]float64, len(t.Flows)),
		leaveAt:  make([]float64, len(t.Flows)),
		left:     make([]bool, len(t.Flows)),
	}
	for fi := range p.leaveAt {
		p.joinAt[fi], _ = t.JoinTime(fi)
		p.leaveAt[fi] = duration
	}
	regions := make([]core.Region, len(t.Links))
	for li := range t.Links {
		cfg, err := t.Links[li].Admission()
		if err != nil {
			return nil, fmt.Errorf("topology %s: link %s: %w", t.Name, t.Links[li].Name, err)
		}
		regions[li] = core.NewRegion(cfg)
	}
	join := func(fi int, at float64) {
		f := &t.Flows[fi]
		for _, li := range f.Route {
			if reason := regions[li].Check(f.Spec); reason != core.Accepted {
				p.rejections = append(p.rejections, Rejection{
					Flow:   f.Name,
					Link:   t.Links[li].Name,
					At:     at,
					Reason: reason,
				})
				return
			}
		}
		for _, li := range f.Route {
			regions[li].Add(f.Spec)
		}
		p.admitted[fi] = true
	}
	for fi := range t.Flows {
		if _, has := t.JoinTime(fi); !has {
			join(fi, 0)
		}
	}
	for _, ev := range t.Events {
		if ev.At > duration {
			break // sorted: every later event is past the horizon too
		}
		switch ev.Kind {
		case EventJoin:
			join(ev.flow, ev.At)
		case EventLeave:
			p.left[ev.flow] = true
			p.leaveAt[ev.flow] = ev.At
			if !p.admitted[ev.flow] {
				continue
			}
			for _, li := range t.Flows[ev.flow].Route {
				regions[li].Remove(t.Flows[ev.flow].Spec)
			}
		}
	}
	return p, nil
}

// crossingKind distinguishes what a shard hand-off carries: a data
// packet entering its next link, or closed-loop feedback (an
// acknowledgement or a drop notification) returning to a source.
type crossingKind int8

const (
	crossData crossingKind = iota
	crossAck
	crossDrop
)

// crossing is one packet handed between shards at a window barrier. It
// travels by value: the sending shard copies the packet and releases
// its own, and the receiving shard draws a fresh one from its pool at
// the barrier (engine.inject), so no pool is ever touched by two
// goroutines and each shard's pool stays balanced however lopsided the
// traffic between them.
type crossing struct {
	pkt     packet.Packet
	dstLink int32
	// srcLink, kind, and flow (global id) break residual (Time, Sched)
	// ties deterministically.
	srcLink int32
	kind    crossingKind
	flow    int32
}

// engineLink is one link's data plane plus its shard placement.
type engineLink struct {
	topoIdx int
	shard   int
	link    *sched.Link
	// col holds the link's per-flow counters; under
	// Options.SkipLinkFlows it is nil and the link counts into tot.
	col *stats.Collector
	tot stats.FlowStats
	// flows maps the link's data-plane flow index to the global flow id.
	// Nil when the link runs with global ids (population-sensitive
	// scheme, or no traversing flows).
	flows []int32
	prop  float64
	// line is the link's propagation wire on its shard's kernel: every
	// packet forwarded to a next hop on the same shard rides it. It is
	// nil when prop is zero or no such packet leaves the link; a
	// delivery is booked at departure instead.
	line *sim.DelayLine
	// arrive is the handler of every packet event that ends at this
	// link: stamp the arrival and enqueue. Built once per link, it
	// serves same-shard propagation and cross-shard injection alike.
	arrive func(p *packet.Packet)
}

// engineShard is one shard's kernel and its per-window outbox.
type engineShard struct {
	s        *sim.Simulator
	delivery *network.Delivery
	outbox   []shard.Item[crossing]
	// ack is the acker of every closed-loop flow delivering on this
	// shard: it sends the acknowledgement home along the reverse path
	// of the flow it names. Built once per shard.
	ack func(ap *packet.Packet)
}

// engineFlow is one flow's entry into its first hop, which every
// packet the flow emits passes: the offered counter, then the hop-0
// localizer. Entries are addressed by flow index in one []engineFlow,
// so a pointer to an element is the flow's sink at no heap object of
// its own.
type engineFlow struct {
	link    *sched.Link
	offered *stats.Counter
	entryID int
	class   int32
}

// Receive implements source.Sink: count the packet as offered and hand
// it to the first hop under its data-plane id.
func (f *engineFlow) Receive(p *packet.Packet) {
	f.offered.Add(p.Size)
	p.Hop = 0
	p.Flow = f.entryID
	p.Class = f.class
	f.link.Receive(p)
}

// generators maps each declared source kind to the generator that runs
// it: a greedy flow is a CBR source offering at its feed rate.
var generators = map[SourceKind]network.Source{
	SourceOnOff:  network.SourceOnOff,
	SourceGreedy: network.SourceCBR,
	SourceCBR:    network.SourceCBR,
	SourceTCP:    network.SourceTCP,
}

// cross queues p for the barrier exchange towards shard dst, due at
// at+delay and stamped at — the instant p leaves (now, or a booked
// delivery's arrival time) — and releases the local packet: from here
// on the copy in the outbox is the packet.
func (es *engineShard) cross(dst int, at, delay float64, p *packet.Packet, load crossing) {
	load.pkt = *p
	es.s.Release(p)
	es.outbox = append(es.outbox, shard.Item[crossing]{
		Dst:   dst,
		Time:  at + delay,
		Sched: at,
		Load:  load,
	})
}

// engine executes one scenario across 1..N shards with bit-identical
// results. The single-shard case runs through the same machinery (one
// worker, an always-empty outbox), so there is exactly one semantics.
type engine struct {
	topo   *Topology
	opts   Options
	ft     *FlowTable
	plan   *admissionPlan
	part   shard.Partition
	edges  []shard.Edge
	links  []*engineLink
	shards []*engineShard
	// hopEntry is aligned with FlowTable.RouteLink: the data-plane flow
	// id a packet must carry at that hop (link-local, or global for
	// unmapped links).
	hopEntry []int32
	entries  []engineFlow
	// flows wires every admitted flow's source and shaper into its
	// entry, and carries feedback back to tcp senders.
	flows *network.Flows
	// ackDelay is each flow's full reverse-path propagation delay;
	// dropDelay, aligned with FlowTable.RouteLink, is the partial
	// reverse delay from that hop's entry back to the source. Both are
	// zero-filled for open-loop flows.
	ackDelay  []float64
	dropDelay []float64
	// feedbackArrived is the one handler of every feedback packet event
	// (flows.Feedback, bound once).
	feedbackArrived func(p *packet.Packet)
	res             *Result
}

// buildEdges derives the partitioner's input from route adjacency: one
// edge per ordered pair of consecutive links on any route, weighted by
// how many flows make that hop, with lookahead = upstream propagation
// delay. Closed-loop (tcp) flows additionally contribute feedback
// edges towards their first link — one from the last link with the
// full reverse-path delay (acknowledgements) and one per later hop
// with the partial reverse delay (drop notifications) — so the
// partitioner either colocates a zero-delay feedback path or the
// synchronization window shrinks to cover it. Coinciding edges merge
// by summed weight and minimum lookahead. The edge list is sorted so
// the partition is deterministic.
func buildEdges(t *Topology, ft *FlowTable) []shard.Edge {
	type key struct{ a, b int32 }
	type info struct {
		weight int64
		look   float64
	}
	edges := map[key]info{}
	add := func(a, b int32, look float64, w int64) {
		if a == b {
			return
		}
		k := key{a, b}
		e, ok := edges[k]
		if !ok || look < e.look {
			e.look = look
		}
		e.weight += w
		edges[k] = e
	}
	for fi := range t.Flows {
		off, end := ft.RouteOff[fi], ft.RouteOff[fi+1]
		for i := off; i+1 < end; i++ {
			a := ft.RouteLink[i]
			add(a, ft.RouteLink[i+1], t.Links[a].PropDelay, 1)
		}
		f := &t.Flows[fi]
		if f.Source != SourceTCP {
			continue
		}
		first := int32(f.Route[0])
		add(int32(f.Route[len(f.Route)-1]), first, reverseDelay(t, f, len(f.Route)), 1)
		for h := 1; h < len(f.Route); h++ {
			add(int32(f.Route[h]), first, reverseDelay(t, f, h), 1)
		}
	}
	keys := make([]key, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	out := make([]shard.Edge, 0, len(keys))
	for _, k := range keys {
		out = append(out, shard.Edge{
			From:      int(k.a),
			To:        int(k.b),
			Lookahead: edges[k].look,
			Weight:    edges[k].weight,
		})
	}
	return out
}

// reverseDelay is the propagation delay feedback generated at the
// entry of hop h (or at delivery, h = len(Route)) accumulates on its
// way back to the source: the sum of the first h reverse links' props.
// Acknowledgements and drop notifications are modelled as delay-only —
// they never queue in reverse-direction buffers, the standard
// simplification when the reverse path is uncongested.
func reverseDelay(t *Topology, f *Flow, h int) float64 {
	d := 0.0
	for j := 0; j < h; j++ {
		d += t.Links[f.ReverseRoute[j]].PropDelay
	}
	return d
}

// newEngine plans and wires one run. It does everything up to (not
// including) starting the clock.
func newEngine(t *Topology, opts Options) (*engine, error) {
	if t.ft == nil {
		return nil, fmt.Errorf("topology %s: not validated", t.Name)
	}
	e := &engine{
		topo:    t,
		opts:    opts,
		ft:      t.ft,
		entries: make([]engineFlow, len(t.Flows)),
		res: &Result{
			Topology: t.Name,
			Duration: opts.Duration,
			Seed:     opts.Seed,
			Flows:    make([]FlowResult, len(t.Flows)),
		},
	}
	plan, err := planAdmission(t, opts.Duration)
	if err != nil {
		return nil, err
	}
	e.plan = plan
	e.res.Rejections = e.plan.rejections

	// Closed-loop bookkeeping: reverse-path delays per flow and per
	// hop, and which links carry tcp flows (those need drop hooks).
	e.ackDelay = make([]float64, len(t.Flows))
	e.dropDelay = make([]float64, len(e.ft.RouteLink))
	hasTCP := make([]bool, len(t.Links))
	for fi := range t.Flows {
		f := &t.Flows[fi]
		if f.Source != SourceTCP {
			continue
		}
		e.ackDelay[fi] = reverseDelay(t, f, len(f.Route))
		for h, li := range f.Route {
			hasTCP[li] = true
			e.dropDelay[e.ft.RouteOff[fi]+int32(h)] = reverseDelay(t, f, h)
		}
	}

	nshards := opts.Shards
	if nshards < 1 {
		nshards = 1
	}
	weight := make([]int64, len(t.Links))
	for li := range t.Links {
		weight[li] = int64(len(e.ft.LinkFlows[li]))
	}
	e.edges = buildEdges(t, e.ft)
	e.part = shard.Compute(len(t.Links), nshards, e.edges, weight)

	deg := degradedLinks(t, opts.Duration)
	for fi := range t.Flows {
		fr := &e.res.Flows[fi]
		fr.Name = t.Flows[fi].Name
		fr.Admitted = e.plan.admitted[fi]
		fr.JoinAt = e.plan.joinAt[fi]
		fr.LeaveAt = e.plan.leaveAt[fi]
		fr.Left = e.plan.left[fi]
		for _, li := range t.Flows[fi].Route {
			if deg[li] {
				fr.Degraded = true
			}
		}
	}

	// Per-shard kernels, pre-sized for what their heaps hold: about one
	// pending event per flow starting there (its start, then its
	// source's or shaper's next action), and a few per link (its
	// transmission, the head of its delay line, its scenario events).
	// Packets on a wire wait in the line's ring, not the heap; feedback
	// in flight and tcp timers grow the heap past this.
	e.shards = make([]*engineShard, e.part.N)
	owned := make([]int, e.part.N)
	for fi := range t.Flows {
		owned[e.part.Assign[t.Flows[fi].Route[0]]]++
	}
	for li := range t.Links {
		owned[e.part.Assign[li]] += 4
	}
	for i := range e.shards {
		s := sim.New()
		if opts.Metrics != nil {
			s.Instrument(opts.Metrics)
		}
		s.Reserve(owned[i] + 256)
		es := &engineShard{
			s:        s,
			delivery: network.NewDeliveryLight(s, len(t.Flows)),
		}
		es.ack = func(ap *packet.Packet) {
			route := t.Flows[ap.Flow].Route
			e.sendFeedback(es, e.links[route[len(route)-1]], ap, crossAck, ap.Created, e.ackDelay[ap.Flow])
		}
		e.shards[i] = es
	}

	lines := e.buildLines()
	specs := t.Specs()
	classes := t.Classes()
	e.links = make([]*engineLink, len(t.Links))
	for li := range t.Links {
		l := &t.Links[li]
		sh := e.part.Assign[li]
		es := e.shards[sh]
		cfg, flows := t.linkConfig(li, specs, classes, sim.DeriveSeed(opts.Seed, linkSeedBase+li))
		el := &engineLink{
			topoIdx: li,
			shard:   sh,
			flows:   flows,
			prop:    l.PropDelay,
			line:    lines[li],
		}
		if !opts.SkipLinkFlows {
			el.col = stats.NewCollector(len(cfg.Specs), 0)
		}
		lk, err := l.scheme.NewLink(es.s, cfg, el.col)
		if err != nil {
			return nil, fmt.Errorf("topology %s: link %s: %w", t.Name, l.Name, err)
		}
		if el.col == nil {
			lk.CountTotals(&el.tot)
		}
		if opts.Metrics != nil {
			lk.Instrument(opts.Metrics, l.Spec)
		}
		el.link = lk
		el.arrive = func(p *packet.Packet) {
			p.Arrived = es.s.Now()
			lk.Receive(p)
		}
		lk.OnDepart = e.forwardFrom(el)
		if hasTCP[li] {
			lk.OnDrop = e.dropFrom(el)
		}
		e.links[li] = el
	}

	// Register each admitted tcp flow's acknowledgement generator on
	// the delivery sink of its last link's shard: every delivered data
	// segment is answered with a cumulative ACK that travels the
	// reverse path's accumulated delay back to the source.
	for fi := range t.Flows {
		if t.Flows[fi].Source != SourceTCP || !e.plan.admitted[fi] {
			continue
		}
		route := t.Flows[fi].Route
		els := e.shards[e.links[route[len(route)-1]].shard]
		els.delivery.SetAcker(fi, network.TCPAckSize, els.ack)
	}

	// Data-plane flow ids per route hop.
	e.hopEntry = make([]int32, len(e.ft.RouteLink))
	for fi := range t.Flows {
		for i := e.ft.RouteOff[fi]; i < e.ft.RouteOff[fi+1]; i++ {
			if e.links[e.ft.RouteLink[i]].flows == nil {
				e.hopEntry[i] = int32(fi)
			} else {
				e.hopEntry[i] = e.ft.RouteLocal[i]
			}
		}
	}

	// Every flow's entry, and every admitted flow's chain into it: its
	// source, behind its shaper when the flow is shaped, on the shard of
	// its first link. A rejected flow keeps the zero chain: no source.
	chains := make([]network.Flow, len(t.Flows))
	for fi := range t.Flows {
		f := &t.Flows[fi]
		e.entries[fi] = engineFlow{
			link:    e.links[f.Route[0]].link,
			offered: &e.res.Flows[fi].Offered,
			entryID: int(e.hopEntry[e.ft.RouteOff[fi]]),
			class:   int32(f.Class),
		}
		if !e.plan.admitted[fi] {
			continue
		}
		c := &chains[fi]
		*c = network.Flow{
			Sim:        e.shardOfFlow(fi).s,
			Entry:      &e.entries[fi],
			Spec:       f.Spec,
			PacketSize: f.PacketSize,
			Rate:       f.AvgRate,
			MeanBurst:  f.MeanBurst,
			Source:     generators[f.Source],
		}
		if f.Shaped {
			c.Regulator = network.RegulatorShaper
		}
		if f.Source == SourceGreedy || f.Source == SourceTCP {
			// A greedy source saturates its shaper, and a tcp sender is
			// paced, at the peak rate (or the first link's rate when no
			// peak is declared): the shaper's (σ, ρ) envelope, or the
			// congestion window clocked by returning ACKs, does the real
			// rate control.
			c.Rate = f.Spec.PeakRate
			if c.Rate <= 0 {
				c.Rate = t.Links[f.Route[0]].Rate
			}
		}
	}
	e.flows = network.NewFlows(chains, opts.Seed)
	e.feedbackArrived = e.flows.Feedback

	// Schedule the scenario in the plan's decision order, each action on
	// the shard owning its flow's first link (sources) or its link.
	for fi := range t.Flows {
		if _, has := t.JoinTime(fi); !has && e.plan.admitted[fi] {
			e.shardOfFlow(fi).s.AtHandler(0, e.flows.Start(fi))
		}
	}
	for i := range t.Events {
		ev := t.Events[i]
		switch ev.Kind {
		case EventJoin:
			if !e.plan.admitted[ev.flow] {
				continue
			}
			e.shardOfFlow(ev.flow).s.AtHandler(ev.At, e.flows.Start(ev.flow))
		case EventLeave:
			if !e.plan.admitted[ev.flow] {
				continue
			}
			e.shardOfFlow(ev.flow).s.AtHandler(ev.At, e.flows.Stop(ev.flow))
		case EventRate:
			el := e.links[ev.link]
			e.shards[el.shard].s.At(ev.At, func() { el.link.SetRate(ev.Rate) })
		case EventFail:
			el := e.links[ev.link]
			e.shards[el.shard].s.At(ev.At, func() { el.link.SetDown(true) })
		case EventRecover:
			el := e.links[ev.link]
			e.shards[el.shard].s.At(ev.At, func() { el.link.SetDown(false) })
		}
	}
	return e, nil
}

// buildLines gives every link with a propagation delay its wire: a
// delay line on its shard's kernel, each shard's rings carved from one
// slab. Only a packet forwarded to a next hop on the same shard rides
// a wire — a delivery is booked at departure and a crossing goes
// through the outbox — so a link no such packet leaves gets no line.
// A ring starts with room for every packet its wire can hold at once:
// departures are at least one smallest riding packet's transmission
// apart at the fastest rate the link is ever set to, and each stays on
// the wire for the propagation delay. Past wireRoomMax a ring starts
// smaller and grows. The result is indexed by link.
func (e *engine) buildLines() []*sim.DelayLine {
	t := e.topo
	fastest := make([]units.Rate, len(t.Links))
	for li := range t.Links {
		fastest[li] = t.Links[li].Rate
	}
	for _, ev := range t.Events {
		if ev.Kind == EventRate {
			fastest[ev.link] = max(fastest[ev.link], ev.Rate)
		}
	}
	// smallest is the smallest packet riding each link's wire, zero
	// where none does (validated packet sizes are positive).
	smallest := make([]units.Bytes, len(t.Links))
	for fi := range t.Flows {
		route := t.Flows[fi].Route
		for h := 0; h+1 < len(route); h++ {
			li := route[h]
			if e.part.Assign[li] != e.part.Assign[route[h+1]] {
				continue
			}
			if sz := t.Flows[fi].PacketSize; smallest[li] == 0 || sz < smallest[li] {
				smallest[li] = sz
			}
		}
	}
	wired := func(li int) bool { return t.Links[li].PropDelay != 0 && smallest[li] != 0 }
	delays := make([][]float64, len(e.shards))
	room := make([][]int, len(e.shards))
	for li := range t.Links {
		if !wired(li) {
			continue
		}
		l := &t.Links[li]
		gap := units.TransmissionTime(smallest[li], fastest[li])
		sh := e.part.Assign[li]
		delays[sh] = append(delays[sh], l.PropDelay)
		room[sh] = append(room[sh], int(min(math.Ceil(l.PropDelay/gap), wireRoomMax))+2)
	}
	built := make([][]sim.DelayLine, len(e.shards))
	for i, es := range e.shards {
		built[i] = es.s.NewDelayLines(delays[i], room[i])
	}
	lines := make([]*sim.DelayLine, len(t.Links))
	for li := range t.Links {
		if sh := e.part.Assign[li]; wired(li) {
			lines[li] = &built[sh][0]
			built[sh] = built[sh][1:]
		}
	}
	return lines
}

// wireRoomMax caps the packets a delay line's ring starts with room
// for.
const wireRoomMax = 1 << 14

func (e *engine) shardOfFlow(fi int) *engineShard {
	return e.shards[e.part.Assign[e.topo.Flows[fi].Route[0]]]
}

// forwardFrom builds el's OnDepart hook: translate the departing
// packet's data-plane id back to the global flow, advance the hop, and
// hand the packet to the next link (same shard: direct or along the
// wire; other shard: outbox item for the barrier exchange) or book it
// at the delivery sink (always local — a flow terminates on its last
// link's shard). A delivery costs no event: the packet is booked now
// at its arrival time, or released when that lies past the horizon,
// where its delivery event would never have fired.
func (e *engine) forwardFrom(el *engineLink) func(p *packet.Packet) {
	es := e.shards[el.shard]
	ft := e.ft
	horizon := e.opts.Duration
	return func(p *packet.Packet) {
		g := int32(p.Flow)
		if el.flows != nil {
			g = el.flows[p.Flow]
		}
		idx := ft.RouteOff[g] + p.Hop + 1
		if idx >= ft.RouteOff[g+1] {
			p.Flow = int(g)
			if t := es.s.Now() + el.prop; t <= horizon {
				es.delivery.ReceiveAt(p, t)
			} else {
				es.s.Release(p)
			}
			return
		}
		p.Hop++
		p.Flow = int(e.hopEntry[idx])
		dst := e.links[ft.RouteLink[idx]]
		if dst.shard == el.shard {
			if el.prop == 0 {
				dst.arrive(p)
				return
			}
			el.line.Send(dst.arrive, p)
			return
		}
		// The partitioner colocates zero-lookahead edges, so a crossing
		// always has prop > 0 and lands at least one window ahead.
		es.cross(dst.shard, es.s.Now(), el.prop, p,
			crossing{dstLink: int32(dst.topoIdx), srcLink: int32(el.topoIdx), flow: g})
	}
}

// dropFrom builds el's OnDrop hook: when a buffer manager rejects a
// closed-loop flow's data segment, notify the source after the partial
// reverse-path delay from the dropping hop. The dropped packet itself
// is the notification; it carries the global flow id from here on.
// Open-loop flows sharing the link have no feedback surface: their
// packet's life ends here.
func (e *engine) dropFrom(el *engineLink) func(p *packet.Packet) {
	es := e.shards[el.shard]
	ft := e.ft
	return func(p *packet.Packet) {
		g := int32(p.Flow)
		if el.flows != nil {
			g = el.flows[p.Flow]
		}
		if e.flows.TCP(int(g)) == nil {
			es.s.Release(p)
			return
		}
		p.Flow = int(g)
		e.sendFeedback(es, el, p, crossDrop, es.s.Now(), e.dropDelay[ft.RouteOff[g]+p.Hop])
	}
}

// sendFeedback routes one reverse-direction notification (ACK or drop)
// generated on shard src at link from back to the source of the flow p
// names (p.Flow is the global id). It leaves at the instant at — now
// for a drop, the booked delivery's arrival time for an ACK, which may
// lie ahead of the clock — and arrives the given propagation delay
// later. Same shard: an event due at at+delay stamped at, or with zero
// delay a direct call (matching the data path's same-event forwarding)
// — or, for an ACK leaving ahead of the clock, an event at at stamped
// now, the key its delivery's own event had; other shard: an outbox
// item for the window barrier, stamped the same way. A cross-shard item
// always has delay ≥ the synchronization window, because the feedback
// edge's lookahead is this delay (zero-delay feedback paths are
// colocated by the partitioner).
func (e *engine) sendFeedback(src *engineShard, from *engineLink, p *packet.Packet, kind crossingKind, at, delay float64) {
	first := e.topo.Flows[p.Flow].Route[0]
	dst := e.part.Assign[first]
	if e.shards[dst] == src {
		switch now := src.s.Now(); {
		case delay != 0:
			src.s.AtStampedPacket(at+delay, at, e.feedbackArrived, p)
		case at == now:
			e.flows.Feedback(p)
		default:
			src.s.AtStampedPacket(at, now, e.feedbackArrived, p)
		}
		return
	}
	src.cross(dst, at, delay, p,
		crossing{dstLink: int32(first), srcLink: int32(from.topoIdx), kind: kind, flow: int32(p.Flow)})
}

// run drives the shards through the conservative window schedule and
// collects the results.
func (e *engine) run(ctx context.Context) (Result, error) {
	cfg := shard.Config{
		Shards:  e.part.N,
		Window:  e.part.Window,
		Horizon: e.opts.Duration,
		// Cap the window so a single-shard (or long-lookahead) run stays
		// cancellable, mirroring the 64-chunk pattern the experiment
		// runner uses. Window subdivision never changes results.
		MinWindows: 64,
	}
	runFn := func(i int, limit float64, final bool) []shard.Item[crossing] {
		es := e.shards[i]
		es.outbox = es.outbox[:0]
		if final {
			es.s.RunUntil(limit)
		} else {
			es.s.RunBefore(limit)
		}
		return es.outbox
	}
	inject := func(d int, items []shard.Item[crossing]) {
		es := e.shards[d]
		for i := range items {
			it := &items[i]
			// The packet joins the receiving shard's pool here, at the
			// barrier. The copy came from a live packet, so the
			// assignment leaves the fresh one marked live.
			p := es.s.NewPacket()
			*p = it.Load.pkt
			fn := e.feedbackArrived // crossAck, crossDrop: feedback to the source
			if it.Load.kind == crossData {
				fn = e.links[it.Load.dstLink].arrive
			}
			es.s.AtStampedPacket(it.Time, it.Sched, fn, p)
		}
	}
	tieLess := func(a, b crossing) bool {
		if a.srcLink != b.srcLink {
			return a.srcLink < b.srcLink
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.flow != b.flow {
			return a.flow < b.flow
		}
		return a.pkt.Seq < b.pkt.Seq
	}
	st, err := shard.Run(ctx, cfg, runFn, inject, tieLess)
	if err != nil {
		return Result{}, err
	}
	e.report(st)
	e.collect()
	return *e.res, nil
}

// report publishes per-shard synchronization metrics.
func (e *engine) report(st shard.Stats) {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter("shard.windows").Add(int64(st.Windows))
	for i, es := range e.shards {
		reg.Counter(fmt.Sprintf("shard.events.%d", i)).Add(int64(es.s.Steps()))
		reg.Counter(fmt.Sprintf("shard.null_bundles.%d", i)).Add(st.NullBundles[i])
		reg.Counter(fmt.Sprintf("shard.exchanged.%d", i)).Add(st.Exchanged[i])
		reg.Counter(fmt.Sprintf("shard.stalls.%d", i)).Add(st.Stalls[i])
	}
	// Lookahead histogram over the realized cut, in microseconds.
	h := reg.Histogram("shard.cut_lookahead_us", metrics.ExpBuckets(1, 4, 12))
	for _, ed := range e.edges {
		if e.part.Assign[ed.From] != e.part.Assign[ed.To] {
			h.Observe(ed.Lookahead * 1e6)
		}
	}
}

// collect folds the per-shard collectors and delivery sinks into the
// Result.
func (e *engine) collect() {
	t := e.topo
	for li := range t.Links {
		el := e.links[li]
		lr := LinkResult{Name: t.Links[li].Name}
		if el.col == nil {
			addTotals(&lr.Totals, &el.tot)
		} else {
			n := el.col.NumFlows()
			for k := 0; k < n; k++ {
				addTotals(&lr.Totals, el.col.Flow(k))
			}
			lr.Flows = make([]LinkFlow, len(t.Flows))
			for k := 0; k < n; k++ {
				g := k
				if el.flows != nil {
					g = int(el.flows[k])
				}
				fs := el.col.Flow(k)
				lr.Flows[g] = LinkFlow{
					Offered:           fs.Offered.Total(),
					Dropped:           fs.Dropped.Total(),
					ConformantDropped: fs.Dropped.Conformant,
					Departed:          fs.Departed.Total(),
					Forwarded:         fs.Departed.Total().Packets,
				}
			}
		}
		lr.Utilization = lr.Totals.Departed.Bytes.Bits() / (t.Links[li].Rate.BitsPerSecond() * e.opts.Duration)
		e.res.Links = append(e.res.Links, lr)
	}
	for fi := range t.Flows {
		fr := &e.res.Flows[fi]
		// A flow delivers on exactly one shard: its last link's.
		route := t.Flows[fi].Route
		d := e.shards[e.part.Assign[route[len(route)-1]]].delivery
		fr.Delivered = stats.Counter{
			Packets: d.Packets(fi),
			Bytes:   d.Bytes(fi),
		}
		active := fr.LeaveAt - fr.JoinAt
		if active > 0 {
			fr.Throughput = units.Rate(fr.Delivered.Bytes.Bits() / active)
		}
		if tcp := e.flows.TCP(fi); tcp != nil {
			fr.Goodput = d.Goodput(fi)
			if active > 0 {
				fr.GoodputRate = units.Rate(fr.Goodput.Bytes.Bits() / active)
			}
			fr.Retransmits = tcp.Retransmits()
		}
		fr.MeanDelay = d.MeanDelay(fi)
		fr.MaxDelay = d.MaxDelay(fi)
	}
	for _, es := range e.shards {
		e.res.Events += es.s.Steps()
	}
}

// addTotals folds one row of link counters into the link's totals.
func addTotals(dst *LinkTotals, fs *stats.FlowStats) {
	addCounter(&dst.Offered, fs.Offered.Total())
	addCounter(&dst.Dropped, fs.Dropped.Total())
	addCounter(&dst.ConformantDropped, fs.Dropped.Conformant)
	addCounter(&dst.Departed, fs.Departed.Total())
	dst.Forwarded += fs.Departed.Total().Packets
}

// addCounter folds one counter into an aggregate.
func addCounter(dst *stats.Counter, o stats.Counter) {
	dst.Packets += o.Packets
	dst.Bytes += o.Bytes
}
