package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/qosd"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// Shape of the two admission workloads. The load comes from this one
// process over admClients keep-alive loopback connections (the
// reference host has two cores); links are partitioned across clients
// as cmd/qload does, so every decision depends only on its own client's
// order and can be replayed exactly.
const (
	admLinks   = 1000
	admFlows   = 500 // provisions the generated links; the daemon starts empty
	admClients = 2
	admBoots   = 3  // daemon starts per run, the last one takes the load
	admSetups  = 20 // in-process set-ups timed at a time; setup_s is the fastest of the run's

	singleRate   = 4000.0 // ops/s over all clients, open loop
	singleWarmup = 1.0    // seconds of load before the measured schedule
	singleParts  = 3      // stretches the measured schedule is offered in, set-ups timed between
	latencyLimit = 1e-3   // over_limit_frac counts answers later than this

	batchSize       = 64
	batchWindow     = 4          // batches in flight per connection
	batchWarmOps    = 192 * 1024 // ops of the untimed pass that fills the links
	batchPassOps    = 2 * 1024   // ops per timed pass, all clients together
	batchSetupEvery = 20         // passes between two timed set-ups
	// tracedBatchSeconds caps the measured part of a traced adm-batch run.
	tracedBatchSeconds = 1.0
	// allocOps is the prefix of client 0's stream served through the
	// in-process handler for mallocs_k / alloc_mb.
	allocOps = 16 * 1024
)

// opMix is the cumulative probability of a join, then of a leave; the
// rest reroute. adm-single uses the issue's 0.5/0.35/0.15. adm-batch
// leaves half as often as it joins, so once the links are full about
// half the joins must be refused (admitted joins = leaves in steady
// state), the 40-60 % the issue asks for.
type opMix struct{ join, leave float64 }

var (
	singleMix = opMix{join: 0.50, leave: 0.85}
	batchMix  = opMix{join: 0.50, leave: 0.75}
)

type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opReroute
)

// op is one generated operation and the answer the oracle gives it.
type op struct {
	kind  opKind
	flow  string
	links []string
	spec  packet.FlowSpec
	want  qosd.Decision
}

// specTemplates are the contracts the generator draws. Rates and
// buckets are whole numbers of bits/s and bytes, so per-link sums are
// exact in float64 whatever the order of admissions and releases: the
// daemon, the serial oracle and a restored snapshot agree to the bit.
func specTemplates() []packet.FlowSpec {
	var out []packet.FlowSpec
	for _, sigma := range []units.Bytes{10_000, 20_000, 40_000, 60_000} {
		for _, rho := range []units.Rate{100_000, 250_000, 500_000, 1_000_000} {
			out = append(out, packet.FlowSpec{PeakRate: 4 * rho, TokenRate: rho, BucketSize: sigma})
		}
	}
	return out
}

type liveFlow struct {
	name  string
	route []int // indices into opGen.links
	spec  packet.FlowSpec
}

// opGen is one client's deterministic operation stream together with
// its oracle: every op is decided, as it is generated, by replaying the
// client's own stream through one core.SerialAdmitter per owned link.
type opGen struct {
	rng       *rand.Rand
	client    int
	mix       opMix
	names     []string
	links     []*core.SerialAdmitter
	active    []liveFlow
	templates []packet.FlowSpec
	seq       int
	// joins and admitted count the generated join ops and how many the
	// oracle accepted.
	joins, admitted int
}

func newOpGen(seed int64, client int, topo *topology.Topology, mix opMix) (*opGen, error) {
	g := &opGen{rng: sim.NewRand(sim.DeriveSeed(seed, client)), client: client, mix: mix, templates: specTemplates()}
	for i := client; i < len(topo.Links); i += admClients {
		l := &topo.Links[i]
		// The daemon's rule: WFQ links get eqs. (5)-(6), every other
		// scheduler the FIFO region, eqs. (7)-(8).
		d := core.DisciplineFIFO
		if l.Spec != "" {
			sc, err := scheme.Parse(l.Spec)
			if err != nil {
				return nil, err
			}
			if sc.SchedulerName() == "wfq" {
				d = core.DisciplineWFQ
			}
		}
		g.names = append(g.names, l.Name)
		g.links = append(g.links, core.NewSerialAdmitter(d, l.Rate, l.Buffer))
	}
	if len(g.links) < 3 {
		return nil, fmt.Errorf("client %d owns %d links, need 3", client, len(g.links))
	}
	return g, nil
}

// pickRoute draws one to three distinct owned links.
func (g *opGen) pickRoute() []int {
	n := 1 + g.rng.Intn(3)
	route := make([]int, 0, n)
	for len(route) < n {
		if k := g.rng.Intn(len(g.links)); !slices.Contains(route, k) {
			route = append(route, k)
		}
	}
	return route
}

func (g *opGen) linkNames(route []int) []string {
	out := make([]string, len(route))
	for i, li := range route {
		out[i] = g.names[li]
	}
	return out
}

// admit books spec on the links of route that are not in keep, or on
// none: it returns the rejection naming the first refusing link in
// route order, as the daemon does.
func (g *opGen) admit(flow string, route, keep []int, spec packet.FlowSpec) qosd.Decision {
	for _, li := range route {
		if slices.Contains(keep, li) {
			continue
		}
		if r := g.links[li].Check(spec); r != core.Accepted {
			return qosd.Decision{Flow: flow, Link: g.names[li], Reason: r.String()}
		}
	}
	for _, li := range route {
		if !slices.Contains(keep, li) {
			g.links[li].Admit(spec)
		}
	}
	return qosd.Decision{Flow: flow, Admitted: true}
}

func (g *opGen) release(route, keep []int, spec packet.FlowSpec) {
	for _, li := range route {
		if !slices.Contains(keep, li) {
			g.links[li].Release(spec)
		}
	}
}

// next generates the client's next operation. With nothing to leave or
// reroute it joins instead, so no generated operation is ever an error.
func (g *opGen) next() op {
	p := g.rng.Float64()
	switch {
	case p < g.mix.join || len(g.active) == 0:
		name := "c" + strconv.Itoa(g.client) + "-" + strconv.Itoa(g.seq)
		g.seq++
		route, spec := g.pickRoute(), g.templates[g.rng.Intn(len(g.templates))]
		want := g.admit(name, route, nil, spec)
		g.joins++
		if want.Admitted {
			g.admitted++
			g.active = append(g.active, liveFlow{name: name, route: route, spec: spec})
		}
		return op{kind: opJoin, flow: name, links: g.linkNames(route), spec: spec, want: want}
	case p < g.mix.leave:
		i := g.rng.Intn(len(g.active))
		f := g.active[i]
		g.active[i] = g.active[len(g.active)-1]
		g.active = g.active[:len(g.active)-1]
		g.release(f.route, nil, f.spec)
		return op{kind: opLeave, flow: f.name, want: qosd.Decision{Flow: f.name, Admitted: true}}
	default:
		f := &g.active[g.rng.Intn(len(g.active))]
		route := g.pickRoute()
		want := g.admit(f.name, route, f.route, f.spec)
		if want.Admitted {
			g.release(f.route, route, f.spec)
			f.route = route
		}
		return op{kind: opReroute, flow: f.name, links: g.linkNames(route), want: want}
	}
}

// encoded is one HTTP request body and where it goes.
type encoded struct {
	path string
	body []byte
}

// marshal renders one request body in the daemon's wire format.
func marshal(path string, v any) encoded {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return encoded{path: path, body: b}
}

// encodeSingle renders one op as its unbatched request.
func encodeSingle(o op) encoded {
	switch o.kind {
	case opJoin:
		return marshal("/v1/join", qosd.JoinRequest{Flow: o.flow, Links: o.links, Spec: o.spec})
	case opLeave:
		return marshal("/v1/leave", qosd.LeaveRequest{Flow: o.flow})
	default:
		return marshal("/v1/reroute", qosd.RerouteRequest{Flow: o.flow, Links: o.links})
	}
}

// encodeBatch renders ops as one /v1/batch request.
func encodeBatch(ops []op) encoded {
	req := qosd.BatchRequest{Ops: make([]qosd.BatchOp, len(ops))}
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opJoin:
			req.Ops[i] = qosd.BatchOp{Op: "join", Flow: o.flow, Links: o.links, Spec: &o.spec}
		case opLeave:
			req.Ops[i] = qosd.BatchOp{Op: "leave", Flow: o.flow}
		default:
			req.Ops[i] = qosd.BatchOp{Op: "reroute", Flow: o.flow, Links: o.links}
		}
	}
	return marshal("/v1/batch", req)
}

// wrongSingle reports whether an unbatched answer differs from the oracle's.
func wrongSingle(status int, body []byte, want qosd.Decision) bool {
	var got qosd.Decision
	return status != http.StatusOK || json.Unmarshal(body, &got) != nil || got != want
}

// wrongBatch counts the entries of a batch answer that differ from the
// oracle's; a malformed answer makes every entry wrong.
func wrongBatch(status int, body []byte, ops []op) int {
	var got qosd.BatchResponse
	if status != http.StatusOK || json.Unmarshal(body, &got) != nil || len(got.Decisions) != len(ops) {
		return len(ops)
	}
	wrong := 0
	for i, d := range got.Decisions {
		if d.Error != "" || d.Decision != ops[i].want {
			wrong++
		}
	}
	return wrong
}
